"""One workload in one fresh process: set up, run the closed loop, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
single-threaded BLAS. ``--probe`` stops after set-up (``import gptsim`` and
the first, untimed op) and prints ``ready``. Without it, the worker runs
ops back to back for ``--seconds`` and writes a JSON summary to
``--result``; every ``--seconds / SETUP_PROBES`` of that it pauses to spawn
a probe and time it from spawn to ``ready``, so that the set-up times
sample the same stretch of the machine's speed as the ops.

The shared host's speed drifts by a third and more over minutes, which no
length of run averages out. So the untimed loop also measures that speed:
every ``REF_EVERY_S`` it runs, for ``REF_BLOCK_S``, a fixed reference
computation that touches no gptsim code. The run's speed factor is the
reference's median time over its median when the benchmark was written
(``REF_NOMINAL_MS``); run.py divides the run's times by it, and reports
the raw figures beside them.

With ``--trace 1`` every op index runs twice, once traced and once not, in
blocks whose order alternates, so that the tracing overhead compares the
same inputs while the machine's speed drifts; it spawns no probes. In
both modes the defect probe then runs, untimed and untraced, each input of
a documented defect once (see ``workloads.Workload``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback

import gptsim  # importing it is part of the set-up time being measured
import numpy as np

import tracing
import workloads as wl

MIN_OPS = 11         # so that a percentile with 10 samples beyond it exists
TRACE_BLOCK_S = 0.5  # length of one untraced or traced block
SETUP_PROBES = 9     # set-up probes per untraced run; setup_s is their median
PROBE_TIMEOUT_S = 30
REF_EVERY_S = 1.0    # a reference block before the next op this often
REF_BLOCK_S = 0.1    # length of one reference block
REF_NOMINAL_MS = 1.45  # the reference's median time when this was written
REF_MATRIX = np.random.default_rng(0).normal(size=(4, 4, 2)) @ [1.0, 1j]
REF_MATRIX = REF_MATRIX + REF_MATRIX.conj().T  # Hermitian


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(gptsim.__file__).startswith(src + os.sep):
        print(f"gptsim imported from {gptsim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.log = sys.stderr if args.probe else sys.stdout
    Loop(workload).one(0)  # the first, untimed op
    if args.probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        result = traced_run(workload, args)
    else:
        loop = Loop(workload)
        setups = []
        references = []  # seconds of each reference computation
        start = time.perf_counter()
        paused = 0.0  # seconds spent in probes
        measured = -REF_EVERY_S  # run time at the last reference block
        while True:
            ran = time.perf_counter() - start - paused
            if (len(setups) < SETUP_PROBES
                    and ran >= len(setups) * args.seconds / SETUP_PROBES):
                began = time.perf_counter()
                setups.append(probe())
                paused += time.perf_counter() - began
            elif ran < args.seconds or len(loop.latencies) < MIN_OPS:
                if ran - measured >= REF_EVERY_S:
                    references += reference_block()
                    measured = ran
                loop.one(len(loop.latencies))
            else:
                break
        result = loop.summary()
        result.update(setup_s=setups, reference_blocks=len(references),
                      speed=1e3 * statistics.median(references)
                      / REF_NOMINAL_MS)
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    result["defect_probe"] = defects = defect_probe(workload)
    result["correct"] = result["correct"] and defects["correct"]
    result["context"] = {"python": sys.version.split()[0],
                         "numpy": np.__version__,
                         "gptsim": gptsim.__file__}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def reference() -> None:
    """A fixed computation that touches no gptsim code, in the mix gptsim's
    ops spend their time on: small numpy linear algebra, interpreted
    arithmetic and float formatting."""
    for _ in range(20):
        w, u = np.linalg.eigh(REF_MATRIX)
        m = (u * np.clip(w, 0.0, None)) @ u.conj().T
        np.kron(m[:2, :2], m[2:, 2:]).trace()
        total = 0.0
        for x in w.tolist():
            total += x * x
        "%.17g,%.17g" % (total, float(np.linalg.norm(m)))


def reference_block() -> list:
    """Seconds of each reference computation run in REF_BLOCK_S."""
    times = []
    end = time.perf_counter() + REF_BLOCK_S
    while time.perf_counter() < end:
        began = time.perf_counter()
        reference()
        times.append(time.perf_counter() - began)
    return times


def probe() -> float:
    """Seconds from spawning this worker's own command with ``--probe`` to
    its ``ready`` line."""
    command = [sys.executable, os.path.abspath(__file__), *sys.argv[1:],
               "--probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - start
        if line != b"ready\n":
            raise RuntimeError("set-up probe did not become ready")
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def defect_probe(workload) -> dict:
    """Run each documented defect's input once, untimed. A raise there is
    the defect showing; a wrong output is still wrong."""
    loop = Loop(workload, label="defect probe op")
    for j, inp in enumerate(workload.defect_inputs()):
        loop.run(j, inp)
    return {"inputs": len(loop.latencies),
            "raised": loop.failed - loop.wrong,
            "raised_known_defect": loop.known_defect,
            "wrong_outputs": loop.wrong,
            "correct": loop.wrong == 0 and loop.failed == loop.known_defect,
            "first_failure": loop.first_failure}


class Loop:
    """Closed loop, one client: the next op starts when the last returns."""

    def __init__(self, workload, tracer=None, label="op"):
        self.workload = workload
        self.tracer = tracer
        self.label = label
        self.latencies = []
        self.keys = []        # input key of each op
        self.items = 0
        self.failed = 0
        self.known_defect = 0
        self.wrong = 0
        self.first_failure = None
        self.bytes_out = {}   # op index -> bytes the CLI wrote
        self.pivots = {}      # op index -> simplex pivots reported

    def one(self, i: int) -> None:
        """Timed op i."""
        self.keys.append(self.workload.key(i))
        self.run(i, self.workload.input(i))

    def run(self, i: int, inp) -> None:
        workload = self.workload
        error = output = None
        if self.tracer:
            self.tracer.begin_op(i)
        start = time.perf_counter()
        try:
            output = workload.op(inp)
        except (Exception, SystemExit) as exc:  # counted and logged
            error = exc
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.end_op()
        self.latencies.append(elapsed)
        if error is None:
            workload.bytes_out = workload.pivots = 0
            try:
                workload.check(inp, output)
            except wl.CheckFailure as exc:
                error = exc
            except Exception as exc:  # unreadable output is a wrong output
                error = wl.CheckFailure(f"{type(exc).__name__}: {exc}")
            self.bytes_out[i] = workload.bytes_out
            self.pivots[i] = workload.pivots
        if error is None:
            self.items += workload.items
        else:
            self.record_failure(i, inp, error)

    def record_failure(self, i, inp, error):
        self.failed += 1
        if isinstance(error, wl.CheckFailure):
            self.wrong += 1
            kind = "wrong output"
        elif self.workload.known_defect(inp):
            self.known_defect += 1
            kind = "raised, known defect"
        else:
            kind = "raised"
        if self.first_failure is None:
            self.first_failure = {
                "op": i, "kind": kind,
                "error": f"{type(error).__name__}: {error}",
                "input": self.workload.describe(inp)}
        log = self.workload.log
        log.write(f"{self.label} {i} failed ({kind}):\n")
        traceback.print_exception(error, file=log)
        log.write(json.dumps(self.workload.describe(inp)) + "\n")

    def summary(self) -> dict:
        """Counts and latency figures. The median and the tail are taken
        over inputs, each at the median latency of its ops, so that a
        stretch of a few seconds in which the shared host runs slow or fast
        does not set them; with distinct inputs they are those over ops."""
        by_input = {}
        for key, seconds in zip(self.keys, self.latencies):
            by_input.setdefault(key, []).append(1e3 * seconds)
        inputs = sorted(float(np.median(v)) for v in by_input.values())
        # the highest percentile with at least 10 samples beyond it
        tail_rank = max(len(inputs) - 11, 0)
        return {
            # every failure is a known defect's: no wrong output, and no
            # raise outside the documented defects' inputs
            "correct": self.wrong == 0 and self.failed == self.known_defect,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "known_defect_failures": self.known_defect,
            "wrong_outputs": self.wrong,
            "first_failure": self.first_failure,
            "items": self.items,
            "op_seconds": sum(self.latencies),
            "op_p50_ms": float(np.median(inputs)),
            "op_tail_ms": inputs[tail_rank],
            "op_tail_percentile": 100.0 * (tail_rank + 1) / len(inputs),
            "inputs": len(inputs),
            "residuals": dict(self.workload.residuals),
            "tolerances": wl.CHECK_TOLERANCES,
        }


def traced_run(workload, args) -> dict:
    """Run blocks of op indices untraced and traced, alternating which goes
    first, until time is up and the exact-count prefix has been traced."""
    tracer = tracing.Tracer()
    plain, traced = Loop(workload), Loop(workload, tracer)
    exact = workload.min_trace_ops
    deadline = time.perf_counter() + args.seconds
    start = block = 0
    while start < exact or time.perf_counter() < deadline:
        first, second = (plain, traced) if block % 2 == 0 else (traced, plain)
        block_end = time.perf_counter() + TRACE_BLOCK_S
        stop = start
        with tracer.installed(first is traced):
            while stop == start or time.perf_counter() < block_end:
                first.one(stop)
                stop += 1
        with tracer.installed(second is traced):
            for i in range(start, stop):
                second.one(i)
        start = stop
        block += 1
    span_file = os.path.join(args.workdir, f"spans-{args.workload}.jsonl")
    tracer.write(span_file)

    result = traced.summary()
    untraced = plain.summary()
    for key in ("attempted", "failed", "known_defect_failures",
                "wrong_outputs"):
        result[key] += untraced[key]
    result.update(
        correct=untraced["correct"] and result["correct"],
        first_failure=untraced["first_failure"] or result["first_failure"],
        traced_ops=len(traced.latencies),
        exact_ops=exact,
        profile=tracer.profile(exact),
        pivots_per_op=sum(traced.pivots.get(i, 0) for i in range(exact))
        / exact,
        bytes_out_per_op=sum(traced.bytes_out.get(i, 0) for i in range(exact))
        / exact,
        overhead_pct=100.0 * (sum(traced.latencies) / sum(plain.latencies)
                              - 1.0),
        spans=span_file,
        span_count=len(tracer.spans),
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
