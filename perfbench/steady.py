"""Steadiness self-check: run each workload repeatedly and compare.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads certify,lp]
                                [--seed0 100] [--out FILE]

It makes ``--sets`` sets of untraced runs, one set after another over all
the chosen workloads, so that the sets lie minutes apart. In a set each
workload runs ``--runs`` times, each time with another seed. For every
end-to-end metric it reports, per set, the median and the spread (third
minus first quartile over the median, as ``statistics.quantiles`` gives
them) against the metric's bound from BENCHMARK.json, and how far each
later set's median moved from the first set's, in the metric's worse
direction. It then makes two traced runs of each workload with the same
seed, whose exact counts (``calls_per_op``, ``pivots_per_op``,
``bytes_out_per_op``) must agree to the last digit. It exits 1 if a spread
or a median's move exceeds its bound, a count differs, or a run was not
correct. All results are written to ``--out`` for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = ("calls_per_op", "pivots_per_op", "bytes_out_per_op")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def verdict(width: float, bound: float) -> str:
    return ("ok" if width < bound / 3 else
            "within bound" if width <= bound else "TOO WIDE")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--out", default=None,
                        help="where to write the runs (default: "
                             ".perfbench_work/steady-<time>.json)")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")

    ok = True
    record = {workload: [] for workload in workloads}
    for k in range(args.sets):
        seed0 = args.seed0 + k * args.runs
        for workload in workloads:
            runs = [bench(workload, seed0 + i, seconds, 0)
                    for i in range(args.runs)]
            record[workload].append(runs)
            ok &= all(r["correct"] for r in runs)
            print(f"set {k} {workload}: {args.runs} runs, seeds {seed0}.."
                  f"{seed0 + args.runs - 1}, failed "
                  f"{sum(r['failed'] for r in runs)} of "
                  f"{sum(r['attempted'] for r in runs)} ops, correct "
                  f"{all(r['correct'] for r in runs)}", flush=True)

    for workload in workloads:
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(record[workload]):
                median, width = spread([r["metrics"][name]["value"]
                                        for r in runs])
                medians.append(median)
                ok &= width <= bound
                line = (f"  {name:<12} set {k} median {median:<12.6g} "
                        f"spread {width:7.2%}  bound {bound:.0%}  "
                        f"{verdict(width, bound)}")
                if k:
                    worse = (medians[0] / median - 1.0
                             if metric["better"] == "higher"
                             else median / medians[0] - 1.0)
                    ok &= worse <= bound
                    line += (f"; median {worse:+.2%} worse than set 0, "
                             f"{verdict(worse, bound)}")
                print(line)

        traced = [bench(workload, args.seed0, seconds, 1)
                  for _ in range(2)]
        record[workload + ":trace"] = traced
        exact = [name for name in traced[0]["metrics"]
                 if name.endswith(EXACT_SUFFIXES)]
        differ = [name for name in exact
                  if traced[0]["metrics"][name]["value"]
                  != traced[1]["metrics"][name]["value"]]
        ok &= not differ and all(r["correct"] for r in traced)
        print(f"  exact counts over two traced runs: "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f" ({len(exact)} counts)", flush=True)

    out = Path(args.out) if args.out else (
        ROOT / ".perfbench_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}"
                                   f".json")
    out.write_text(json.dumps(record))
    print(f"runs written to {out}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
