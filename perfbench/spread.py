#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it.

    python3 perfbench/spread.py --workload disk-cold --seeds 1-10 [--seconds S]

Runs the workload once per seed (untraced) and prints, per metric, the
median, the quartile distance as a share of the median
(statistics.quantiles(values, n=4)), the metric's bound from
BENCHMARK.json, and whether the spread is below a third of the bound.
Exits non-zero when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:16} median {med:12.5g}  spread {spread:7.4f}"
              f"  bound {metric['bound']:5.2f}  {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
