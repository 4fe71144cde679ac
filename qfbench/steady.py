#!/usr/bin/env python3
"""Steadiness check of the QF-RAMAN benchmark.

Runs qfbench/run.py on each workload with several seeds and reports, for
every end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(n=4)) and the interquartile spread as a share of the
median, against the metric's bound in BENCHMARK.json:

    python3 qfbench/steady.py [--runs 10] [--first-seed 1]
                              [--workloads a,b] [--seconds S]

A spread above the bound fails; one above a third of the bound is flagged.
setup_s is exempt from the spread test (its bound limits the shift of its
median between two sets of runs). Exits 1 if any spread fails or any run is
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    lines = out.strip().splitlines()
    meta = next(json.loads(l)["meta"] for l in lines
                if l.startswith('{"meta"'))
    return meta, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    a = p.parse_args()

    ok = True
    for workload in a.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        fastest = []
        for k in range(a.runs):
            meta, res = run_once(workload, a.first_seed + k, a.seconds)
            fastest.append(meta["job_s_min"])
            if not res["correct"] or res["failed"] != 0:
                print("%s seed %d: incorrect (%d of %d failed)" % (
                    workload, a.first_seed + k, res["failed"],
                    res["attempted"]))
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print("== %s (%d runs, seeds %d..%d)" % (
            workload, a.runs, a.first_seed, a.first_seed + a.runs - 1))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread > m["bound"]:
                verdict = "FAIL"
                ok = False
            elif spread > m["bound"] / 3:
                verdict = "above bound/3"
            else:
                verdict = "ok"
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.3f bound %.3f %s %s" % (
                      m["name"], med, q1, q3, spread, m["bound"], m["unit"],
                      verdict))
            print("    values %s" % " ".join("%.6g" % x for x in v))
        # The fastest job of each run, for comparison with job_s (each
        # run's median): on a shared host, which of the two spreads less
        # shows whether the interference came in bursts or was sustained.
        q1, _, q3 = statistics.quantiles(fastest, n=4)
        print("  (fastest job per run: spread %.3f, values %s)" % (
            (q3 - q1) / statistics.median(fastest),
            " ".join("%.6g" % x for x in fastest)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
