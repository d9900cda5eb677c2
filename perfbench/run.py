#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
then runs it; its last line of output is the result JSON.  With
--trace 1 the in-memory spans are written to
perfbench/out/trace-<workload>-<seed>.jsonl at exit.  --workload all
runs the four workloads one after the other and exits nonzero if any
check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["smr_write", "smr_faults", "kv_shard_reads", "mc_verify"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")


def build():
    """Build bench.exe; return True on success.  Build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: no dune-project or lib/ at %s\n" % ROOT)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return False
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def run_one(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(OUT, "trace-%s-%d.jsonl" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not build():
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(w, args.seed, args.seconds, args.trace) for w in names]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
