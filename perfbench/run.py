"""gptsim benchmark: one workload per invocation, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 23 --trace 0

``--workload all`` runs the four workloads one after another, each with
its own report and result line.

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``certify`` (1000-scenario affinity certificates), ``scenario`` (single
signaling scenarios over a fixed input mix), ``lp`` (``gptsim tau --lp 720``)
and ``scan`` (``gptsim scan --grid 41`` as CSV). Each runs as a closed loop,
one client, in its own fresh single-threaded process (worker.py), importing
gptsim from the checkout's ``src``.

``--trace 0`` reports the end-to-end metrics: work_per_s, op_p50_ms,
op_tail_ms, setup_s (median over fresh processes, spawned at even steps
through the run, of spawn to ready, i.e. ``import gptsim`` plus the first
untimed op) and peak_rss_mb. Its times are divided by the run's speed
factor, which a fixed reference computation run between the ops measures
(see worker.py), and the report prints them raw as well. It prints
error_rate by name too, which the final line carries as
``failed / attempted``. Inputs of documented defects are not timed ops: a
defect probe runs each once per run, untimed, and the report prints how
many raised and the first that did. ``--trace 1`` wraps every public
function of each layer from outside the package and reports per-layer self
times, exact call counts, the checks' worst residuals and the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and the run's context. The metric names and units
come from BENCHMARK.json at the checkout root, so the two cannot drift.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "scenario", "lp", "scan")
DEADLINE_S = 170   # the whole run, so that it ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MARGIN_CAP = 16.0  # decades reported for a residual of 0 or a check not run
TIMED = ("work_per_s", "op_p50_ms", "op_tail_ms", "setup_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        try:
            line = run(args, Deadline(DEADLINE_S))
        except (BenchError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line))
    return 0


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return seed


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"the run took longer than {DEADLINE_S} s")
        return left


def run(args, deadline) -> dict:
    if not (ROOT / "src" / "gptsim" / "__init__.py").is_file():
        raise BenchError(f"no gptsim source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    # build: byte-compile the package so every cold start reads the same .pyc
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "gptsim")], check=True, cwd=ROOT,
                   env=env, stdout=subprocess.DEVNULL, timeout=deadline.left())

    result_path = workdir / f"{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path)]
    with open(workdir / f"{tag}.log", "w") as log:
        # its own process group, so that a timeout also ends its probes
        worker = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                  stderr=log, start_new_session=True)
        try:
            code = worker.wait(timeout=deadline.left())
        except (subprocess.TimeoutExpired, BenchError):
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            raise BenchError(f"worker timed out; see {log.name}") from None
        if code != 0:
            raise BenchError(f"worker exited with {code}; see {log.name}")
    result = json.loads(result_path.read_text())
    setups = result.get("setup_s", [])

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(),
               "cpus_allowed": len(os.sched_getaffinity(0)),
               "git_commit": git_commit(ROOT),
               "blas_threads": {name: env[name] for name in THREAD_VARS},
               **result["context"]}
    if args.trace:
        metrics = per_layer_metrics(result)
    else:
        metrics = end_to_end_metrics(result, setups, result["speed"])
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"BENCHMARK.json names {name}, which this run "
                             f"does not measure")
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise BenchError(f"{name} is in {unit}, BENCHMARK.json says "
                             f"{entry['unit']}")
        out[name] = {"value": value, "unit": unit}

    print(f"perfbench {tag}")
    print("context " + json.dumps(context, sort_keys=True))
    print_report(args, result, metrics,
                 list(out) + ([] if args.trace else ["error_rate"]), setups)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def end_to_end_metrics(result, setups, speed=1.0) -> dict:
    """The untraced run's metrics, with its times divided by ``speed``."""
    return {
        "work_per_s": (speed * result["items"] / result["op_seconds"],
                       "items/s"),
        "op_p50_ms": (result["op_p50_ms"] / speed, "ms"),
        "op_tail_ms": (result["op_tail_ms"] / speed, "ms"),
        "error_rate": (result["failed"] / result["attempted"], "ratio"),
        "setup_s": (statistics.median(setups) / speed, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer_metrics(result) -> dict:
    metrics = {}
    layers = {}
    for name, (calls_exact, calls, self_ns) in result["profile"].items():
        if name == "op":
            continue  # the benchmark's own root span
        per_call = self_ns / calls if calls else 0.0
        metrics[f"{name}.calls_per_op"] = (
            calls_exact / result["exact_ops"], "count")
        metrics[f"{name}.self_us"] = (per_call / 1e3, "us")
        metrics[f"{name}.self_ms"] = (per_call / 1e6, "ms")
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0) + self_ns
    for layer, self_ns in layers.items():
        metrics[f"{layer}.busy_ms_per_op"] = (
            self_ns / result["traced_ops"] / 1e6, "ms")
    metrics["simplex.pivots_per_op"] = (result["pivots_per_op"], "count")
    metrics["cli.bytes_out_per_op"] = (result["bytes_out_per_op"], "bytes")
    for check, tol in result["tolerances"].items():
        worst = result["residuals"][check]
        margin = (min(math.log10(tol / worst), MARGIN_CAP) if worst > 0
                  else MARGIN_CAP)
        metrics[f"check.{check}.max"] = (worst, "1")
        metrics[f"check.{check}.margin_decades"] = (margin, "decades")
    metrics["trace.overhead_pct"] = (result["overhead_pct"], "%")
    return metrics


def print_report(args, result, metrics, names, setups) -> None:
    raised = result["failed"] - result["wrong_outputs"]
    failures = (f"{result['failed']} of {result['attempted']} ops failed: "
                f"{result['wrong_outputs']} wrong output, {raised} raised, "
                f"{result['known_defect_failures']} of those on inputs of "
                f"documented defects")
    probe = result["defect_probe"]
    probed = (f"{probe['raised']} of {probe['inputs']} inputs of documented "
              f"defects raised ({probe['raised_known_defect']} as such), "
              f"{probe['wrong_outputs']} wrong output")
    notes = {
        "op_p50_ms": f"median of {result['inputs']} inputs' median latencies",
        "op_tail_ms": (f"p{result['op_tail_percentile']:.4g} of "
                       f"{result['inputs']} inputs' median latencies, "
                       f"{result['attempted']} ops"),
        "error_rate": failures,
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "trace.overhead_pct": f"traced vs untraced, the same "
                              f"{result.get('traced_ops')} op indices",
    }
    for check, tol in result["tolerances"].items():
        notes[f"check.{check}.max"] = f"tolerance {tol:g}"
    for name in names:
        value, unit = metrics[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<56} {value:>14.6g} {unit}{note}")
    if args.trace:
        print(f"traced ops: {result['traced_ops']}, exact counts over the "
              f"first {result['exact_ops']}, {result['span_count']} spans in "
              f"{result['spans']}")
        print("error_rate " + failures)
    if result["first_failure"]:
        print("first_failure " + json.dumps(result["first_failure"],
                                            sort_keys=True))
    if not args.trace:
        raw = end_to_end_metrics(result, setups)
        print(f"speed factor {result['speed']:.4f} from "
              f"{result['reference_blocks']} reference computations; raw, "
              f"before dividing by it: " + ", ".join(
                  f"{name} {raw[name][0]:.6g}" for name in TIMED))
    if probe["inputs"]:
        print("defect_probe " + probed)
    if probe["first_failure"]:
        print("defect_probe first_failure "
              + json.dumps(probe["first_failure"], sort_keys=True))


def git_commit(root: Path) -> str | None:
    """HEAD commit, or None where root is no git repository of its own or
    git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
