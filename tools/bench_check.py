#!/usr/bin/env python3
"""Counter gate over the end-to-end benchmark's deterministic counters.

Run from the repository root:

    python3 tools/bench_check.py            # run, compare, exit 1 on a diff
    python3 tools/bench_check.py --update   # run, rewrite the expected file

Each of the four workloads runs once at its smoke size, traced, seed 1
(`bench/e2e/run.py --smoke --trace 1 --out ...`).  Every counter a run's
record lists under "deterministic" must equal the committed value in
test/bench_counters.expected.jsonl (one JSON line per workload).  Wall
time is printed for each run but not gated.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("edit_hotspot", "query_cold", "replicated_edit", "sharded_mix")
EXPECTED = os.path.join(ROOT, "test", "bench_counters.expected.jsonl")
OUT = os.path.join(ROOT, "_build", "bench_check.jsonl")


def run(workload):
    if os.path.exists(OUT):
        os.remove(OUT)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "e2e", "run.py"),
         "--workload", workload, "--seed", "1", "--smoke", "--trace", "1",
         "--out", OUT],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_check: {workload} run failed ({proc.returncode})")
    with open(OUT) as f:
        record = json.loads(f.readlines()[-1])
    counters = {name: record["metrics"][name]["value"]
                for name in record["deterministic"]}
    print(f"bench_check: {workload}: {wall:.2f} s wall (not gated), "
          f"{len(counters)} deterministic counters")
    return {"workload": workload, "counters": counters}


def load_expected():
    with open(EXPECTED) as f:
        return {r["workload"]: r["counters"]
                for r in (json.loads(line) for line in f if line.strip())}


def diff(workload, want, got):
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{workload}: {name} missing (expected {want[name]})")
        elif name not in want:
            problems.append(f"{workload}: {name} not in the expected record")
        elif want[name] != got[name]:
            problems.append(
                f"{workload}: {name} = {got[name]}, expected {want[name]}")
    return problems


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit("usage: bench_check.py [--update]")
    records = [run(w) for w in WORKLOADS]
    if update:
        with open(EXPECTED, "w") as f:
            for r in records:
                f.write(json.dumps(r, sort_keys=True) + "\n")
        print(f"bench_check: wrote {os.path.relpath(EXPECTED, ROOT)}")
        return
    expected = load_expected()
    problems = []
    for r in records:
        want = expected.get(r["workload"])
        if want is None:
            problems.append(f"{r['workload']}: no expected record")
        else:
            problems += diff(r["workload"], want, r["counters"])
    for p in problems:
        print("bench_check: " + p)
    if problems:
        print("bench_check: counters moved; if the change is intended, rerun "
              "with --update and name every moved counter in the commit")
        sys.exit(1)
    print("bench_check: ok")


if __name__ == "__main__":
    main()
