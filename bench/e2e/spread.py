#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/e2e/spread.py [--seeds 1-10] [--workloads a,b]
                                [--seconds N] [--out FILE]

Runs every workload once per seed (untraced, through run.py), then prints
per metric the median and the quartile spread (Q3 - Q1) / median, using
statistics.quantiles(values, n=4), next to a third of the metric's bound
in BENCHMARK.json.  --out appends every run's full record to FILE.
Exits 1 when any run is incorrect or any spread but setup_s's reaches a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: incorrect run")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            flag = ""
            if metric["name"] != "setup_s" and spread >= limit:
                flag = "  TOO WIDE"
                ok = False
            print(f"{w:16} {metric['name']:18} median {med:12.3f} "
                  f"spread {spread:6.3f} (limit {limit:.3f}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
