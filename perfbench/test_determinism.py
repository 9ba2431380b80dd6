#!/usr/bin/env python3
"""The benchmark's own test: two traced runs with the same seed must
print identical deterministic counts.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S] [workload ...]

Runs each workload (all three by default) twice with --trace 1 and
compares the counts below exactly.  Exits non-zero on any difference or
failed run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENGINE = ["engine.visited", "engine.djoins", "engine.intermediate",
          "engine.index_seeks", "twig.visited", "translate.branches"]
UPDATE = ["update.relabeled_nodes", "update.pages_written"]

COUNTS = {
    "mem-engine": ENGINE + UPDATE + ["optimizer.qerror_p50", "optimizer.qerror_max"],
    "disk-cold": ENGINE + UPDATE + [
        "buffer_pool.misses_per_query", "codec.entries_per_page",
        "codec.v1_misses_per_query", "codec.v2_misses_per_query",
        "wal.fsyncs_per_update", "wal.read_fsyncs"],
    "cluster-rw": UPDATE + ["wal.fsyncs_per_update"],
}


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload}: run failed with exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("workloads", nargs="*", default=list(COUNTS))
    args = ap.parse_args()
    failed = False
    for w in args.workloads:
        a = traced(w, args.seed, args.seconds)
        b = traced(w, args.seed, args.seconds)
        for name in COUNTS[w]:
            va, vb = a[name]["value"], b[name]["value"]
            same = va == vb
            failed |= not same
            print(f"{w:11} {name:30} {va!r:>22} {vb!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
