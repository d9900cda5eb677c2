#!/usr/bin/env python3
"""Run workloads once per seed and summarise each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

For every metric: the values, their median, first and third quartile
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to each metric's bound from BENCHMARK.json.  The summary, with the
host's cores, the OCaml version, the commit (or a digest of the sources
when the checkout is not a git repository), the seeds and the run count,
is written as JSON to --out (default perfbench/out/spread.json).  Exits
nonzero if a run fails its checks or a spread exceeds its bound.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def ocaml_version():
    r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        r = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                           text=True)
    return r.stdout.strip()


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out",
                    default=os.path.join(ROOT, "perfbench", "out",
                                         "spread.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    summary = {
        "host": {"cores": os.cpu_count(), "ocaml": ocaml_version(),
                 "commit": commit()},
        "seconds": args.seconds, "trace": args.trace, "seeds": seeds,
        "runs": len(seeds), "workloads": {},
    }
    ok = True
    for w in args.workloads.split(","):
        values = {}
        units = {}
        for s in seeds:
            code, res = run(w, s, args.seconds, args.trace)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, s, code))
                ok = False
                continue
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
        rows = {}
        print("%s  (%d runs, %gs each)" % (w, len(seeds), args.seconds))
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], vs[0], vs[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k) if args.trace == 0 else None
            flag = ""
            if bound is not None and k != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            rows[k] = {"unit": units[k], "values": vs, "median": med,
                       "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (k, med, q1, q3, spread,
                     (" / bound %g%s" % (bound, flag)) if bound else ""))
        summary["workloads"][w] = rows
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
