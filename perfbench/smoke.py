#!/usr/bin/env python3
"""Smoke test: a short run of every workload.

    python3 perfbench/smoke.py [--seconds S] [--seed N]

For each workload in BENCHMARK.json: one untraced run and two traced
runs with the same seed.  Checks that each exits 0, that its last line
is the result object with exactly the expected keys and metric names,
that every correctness check passed with no failed operation, and that
the count metrics of the two traced runs are identical.
"""

import argparse
import json
import os
import subprocess
import sys

import run as runner

# Units of metrics that count work rather than time it: equal for equal
# seeds.
COUNT_UNITS = {"count", "rounds", "frames", "frames/op", "frames/round",
               "words/op", "B/op", "cmds", "cmds/kround", "rounds/read",
               "rounds/write"}


def result_of(workload, seed, seconds, trace):
    r = subprocess.run(
        [runner.EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=runner.ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not runner.build():
        return 2
    problems = []
    for w in [x["name"] for x in bench["workloads"]]:
        seen = []
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"]),
                            (1, bench["per_layer"])):
            code, res, out = result_of(w, args.seed, args.seconds, trace)
            tag = "%s trace=%d" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d\n%s" % (tag, code, out))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s"
                                % (tag, res["correct"], res["attempted"],
                                   res["failed"]))
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (tag, sorted(set(got) ^ set(want))))
            if trace:
                seen.append(res["metrics"])
        if len(seen) == 2:
            for k, v in seen[0].items():
                if v["unit"] in COUNT_UNITS and v["value"] != seen[1][k]["value"]:
                    problems.append("%s: count metric %s differs for one seed: "
                                    "%s vs %s" % (w, k, v["value"],
                                                  seen[1][k]["value"]))
        print("%-16s %s" % (w, "ok" if not problems else "checked"))
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
