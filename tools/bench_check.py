#!/usr/bin/env python3
"""Counter gate over the benchmarks' deterministic counters.

Run from the repository root:

    python3 tools/bench_check.py            # run, compare, exit 1 on a diff
    python3 tools/bench_check.py --update   # run, rewrite the expected files

End to end: each of the four workloads runs once at its smoke size,
traced, seed 1 (`bench/e2e/run.py --smoke --trace 1 --out ...`).  Every
counter a run's record lists under "deterministic" must equal the
committed value in test/bench_counters.expected.jsonl (one JSON line per
workload).

Layer by layer: each of the five layer benches (bench/exp_*.exe) runs
once at its smoke size, writing _build/BENCH_<name>.smoke.json, and must
exit 0 (each asserts its own answers and floors).  Its gated columns,
the ones that read the same on every run (counts, comparisons,
minor-heap words), must equal the committed values in
test/layer_bench_counters.expected.jsonl (one JSON line per bench row).

Wall time is printed for each run but not gated.
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
LAYER_EXPECTED = os.path.join(ROOT, "test",
                              "layer_bench_counters.expected.jsonl")

# name -> (smoke-size arguments, gated columns).  A column is gated when
# it is a function of the code and the arguments alone; wall times,
# rates and speedups are not, and neither is exp_query's major_words:
# what a minor collection promotes depends on where collections fall,
# which moves with every byte allocated before (even the length of the
# --json path).  Minor words per query appear on 1-domain pool rows
# only, where every task runs on the measuring domain.
LAYER_BENCHES = {
    "query": (
        ["--n", "2000", "--queries", "100"],
        ["comparisons", "minor_words", "index_repairs", "full_rebuilds"]),
    "recovery": (
        ["--ops", "200"],
        ["fsyncs", "journal_bytes", "replayed", "durable_seq", "slots",
         "label_bytes", "bits_per_label", "formula_bits", "fixed_bits",
         "image_bytes"]),
    "replication": (
        ["--ops", "50"],
        ["peak_lag", "mean_lag", "ticks", "frames", "promoted_seq",
         "dropped", "records", "mean_ship_ticks", "mean_deliver_ticks",
         "mean_apply_ticks", "mean_readable_ticks", "mean_e2e_ticks",
         "retries"]),
    # Also binds the disabled-span overhead bound.
    "parallel": (
        ["--sizes", "500", "--domains-list", "1,2", "--reps", "2",
         "--batch", "16"],
        ["comparisons_per_query", "minor_words_per_query"]),
    # n=2000 is the smallest size tried at which the one-domain K=4
    # floor holds; at n=400 four tasks cost more than the join they split.
    "shard": (
        ["--n", "2000", "--shards-list", "1,2,4", "--domains-list", "1,2",
         "--reps", "2", "--batch", "12"],
        ["comparisons_per_query", "minor_words_per_query"]),
}


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


def run_layer(name):
    args, gated = LAYER_BENCHES[name]
    out = os.path.join(ROOT, "_build", f"BENCH_{name}.smoke.json")
    t0 = time.monotonic()
    proc = subprocess.run(
        ["dune", "exec", f"bench/exp_{name}.exe", "--"] + args
        + ["--json", out],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"bench_check: exp_{name} failed ({proc.returncode})")
    with open(out) as f:
        rows = json.load(f)["rows"]
    records = []
    for row in rows:
        counters = {m: row["metrics"][m] for m in gated if m in row["metrics"]}
        if counters:
            records.append({"bench": name, "case": row["case"],
                            "counters": counters})
    print(f"bench_check: exp_{name}: {wall:.2f} s wall (not gated), "
          f"{len(records)} rows gated")
    return records


def layer_key(record):
    return (record["bench"] + " "
            + json.dumps(record["case"], sort_keys=True))


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def write_jsonl(path, records):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    print(f"bench_check: wrote {os.path.relpath(path, ROOT)}")


def diff(what, want, got):
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{what}: {name} missing (expected {want[name]})")
        elif name not in want:
            problems.append(f"{what}: {name} not in the expected record")
        elif want[name] != got[name]:
            problems.append(
                f"{what}: {name} = {got[name]}, expected {want[name]}")
    return problems


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit("usage: bench_check.py [--update]")
    records = [run(w) for w in WORKLOADS]
    layers = [r for name in LAYER_BENCHES for r in run_layer(name)]
    if update:
        write_jsonl(EXPECTED, records)
        write_jsonl(LAYER_EXPECTED, layers)
        return
    expected = {r["workload"]: r["counters"] for r in load_jsonl(EXPECTED)}
    problems = []
    for r in records:
        want = expected.get(r["workload"])
        if want is None:
            problems.append(f"{r['workload']}: no expected record")
        else:
            problems += diff(r["workload"], want, r["counters"])
    layer_expected = {layer_key(r): r["counters"]
                      for r in load_jsonl(LAYER_EXPECTED)}
    layer_got = {layer_key(r): r["counters"] for r in layers}
    for key in sorted(set(layer_expected) | set(layer_got)):
        if key not in layer_got:
            problems.append(f"{key}: row missing")
        elif key not in layer_expected:
            problems.append(f"{key}: row not in the expected file")
        else:
            problems += diff(key, layer_expected[key], layer_got[key])
    for p in problems:
        print("bench_check: " + p)
    if problems:
        print("bench_check: counters moved; if the change is intended, rerun "
              "with --update and name every moved counter in the commit")
        sys.exit(1)
    print("bench_check: ok")


if __name__ == "__main__":
    main()
