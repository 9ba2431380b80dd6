#!/usr/bin/env python3
"""Build and run the BLAS benchmark (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload <mem-engine|disk-cold|cluster-rw> \
        --seed N --seconds S --trace <0|1>

Run from the root of a source checkout.  The benchmark is an OCaml program
(perfbench/bench.ml) linked against the repo's libraries; this script
builds it with dune (output on stderr), then runs it.  The last line of
stdout is the JSON result.  Exits non-zero, printing no result, when the
sources are missing, the build fails, or the run fails or answers wrongly.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no BLAS sources (dune-project, lib/) next to perfbench/",
              file=sys.stderr)
        return 2
    # The dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    finally:
        # A killed run leaves its scratch files behind.
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp", str(proc.pid)),
                      ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
