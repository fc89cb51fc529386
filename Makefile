.PHONY: all build test bench bench-query bench-recovery bench-parallel bench-parallel-smoke bench-replication bench-shard bench-shard-smoke examples soak analyze selfcheck selfcheck-quick crash-matrix crash-matrix-quick matrix-summaries replica-matrix shard-matrix shard-matrix-quick replicate-smoke trace-smoke obs-smoke bench-check ci clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Static analysis: the cmt-based analyzer (tools/analyze) over its
# default scope (lib/ bin/ bench/ examples/ tools/) — the per-unit rules
# R1-R7, domain-safety taint (R8), hot-path allocations (R9), unused
# lib/ exports (R11, with uses counted from every .cmt, test/ included)
# and allowlist hygiene (A1/A2); the rule table is DESIGN.md section 7.
# `@check` writes a .cmt for every module, executables' main modules
# included.  Any finding fails the build: there is no baseline, and a
# finding is accepted only by an audited race_allow/global_allow entry
# in tools/analyze/analyze_rules.ml.
analyze:
	dune build @all @check
	dune exec tools/analyze/ltree_analyze.exe -- --build _build/default

# Dynamic analysis: `ltree check` replays a randomized workload and
# validates every invariant registered in the Ltree_analysis.Invariant
# registry (cheap ones on a cadence derived from --ops, all of them at
# each checkpoint), shrinking and dumping the first failure.  One run
# at f=8 s=2, one at the CLI's default f=4 s=2; the quick f=8 run uses
# a 2-domain pool, so the pooled-plan invariants (exec.parallel-plans-
# agree, shard.plans-agree) run in `make ci` too.
selfcheck:
	dune exec bin/ltree_cli.exe -- check --ops 2000 --seed 1 -f 8 -s 2
	dune exec bin/ltree_cli.exe -- check --ops 500 --seed 1

selfcheck-quick:
	dune exec bin/ltree_cli.exe -- check --ops 300 --seed 1 -f 8 -s 2 --domains 2
	dune exec bin/ltree_cli.exe -- check --ops 100 --seed 1

# Crash the durable store at every write point in every corruption mode
# (clean / torn / bit-flip), recover, and verify the result against a
# bit-exact in-memory oracle plus the full invariant registry.  The
# shard and replica matrices below are the same `crash-matrix` command
# with --shards K or --replica.
crash-matrix:
	dune exec bin/ltree_cli.exe -- crash-matrix --ops 200

crash-matrix-quick:
	dune exec bin/ltree_cli.exe -- crash-matrix --ops 60 --nodes 60 --checkpoint-every 16

# The shard-level matrix: kill one shard's disk at every one of its
# write points in every corruption mode, recover that shard alone, and
# verify the whole document — crashed shard at its durable prefix,
# sibling shards and the router untouched, sharded plans still equal to
# the unsharded reference.
shard-matrix:
	dune exec bin/ltree_cli.exe -- crash-matrix --shards 3 --ops 120 \
	  --nodes 100 --checkpoint-every 24

shard-matrix-quick:
	dune exec bin/ltree_cli.exe -- crash-matrix --shards 3 --ops 40 \
	  --nodes 60 --checkpoint-every 12 --domains 2

# The replica-level matrix: kill the primary mid-commit, the replica
# mid-apply, or sever the channel mid-record, in every damage mode;
# recover / promote / resync and verify the survivor is a bit-exact
# oracle prefix.
replica-matrix:
	dune exec bin/ltree_cli.exe -- crash-matrix --replica --ops 200

# Tiny replication run wired into `make ci`: a noisy catch-up with
# failover plus two small but complete replica-level matrices — one
# rotating every 8 ops, one with 64 shipper pumps between rotations so
# the journal cursor resumes many times within one generation.
replicate-smoke:
	dune exec bin/ltree_cli.exe -- replicate --ops 60 --nodes 60 \
	  --noise-every 5 --failover > /dev/null
	dune exec bin/ltree_cli.exe -- crash-matrix --replica --ops 24 \
	  --nodes 40 --group-commit 2 --checkpoint-every 8
	dune exec bin/ltree_cli.exe -- crash-matrix --replica --ops 96 \
	  --nodes 40 --group-commit 4 --checkpoint-every 64

# The matrices with their shape pinned: crash-matrix-quick,
# shard-matrix-quick, replicate-smoke and the full-size crash-matrix and
# shard-matrix (about a second each) must pass, and their summary lines
# (progress lines dropped) must equal test/matrix_summaries.expected,
# so a matrix that silently loses write points or cells fails too.  The
# full replica matrix (~10 s) stays out; replicate-smoke covers it.
matrix-summaries:
	@mkdir -p _build
	@$(MAKE) -s --no-print-directory crash-matrix-quick shard-matrix-quick \
	  replicate-smoke crash-matrix shard-matrix \
	  > _build/matrix_summaries.log 2>&1 \
	  || { cat _build/matrix_summaries.log; exit 1; }
	@grep -v '^  \.\.\.' _build/matrix_summaries.log \
	  > _build/matrix_summaries.txt
	diff -u test/matrix_summaries.expected _build/matrix_summaries.txt

# Observability smoke: replay a workload with tracing on, export the
# trace as JSONL and verify every line parses and the span tree covers
# the ltree, relstore and recovery layers.
trace-smoke:
	dune exec bin/ltree_cli.exe -- trace --ops 200 --seed 1 \
	  -o _trace_smoke.jsonl --verify
	dune exec bin/ltree_cli.exe -- metrics --ops 200 --seed 1 > /dev/null
	rm -f _trace_smoke.jsonl

# Flight-recorder smoke: for one cell of each matrix (store, shard,
# replica) at the quick sizes, force the cell to fail, check that the
# recorder dumped a bundle, validate the bundle, require it to hold
# that cell's own "failed" verdict note, require a copy missing
# one entry line to be rejected, and replay just that cell from the
# bundle's recorded rerun command.  Then round-trip a traced
# replication run plus the JSON metrics export, fold the histograms of
# `ltree metrics` and `replicate --metrics` out of the ring (each must
# print a ported series), and fold a gauge dashboard from a ring that
# must not drop an entry.
# $(call obs_smoke_cell,CELL,MATRIX FLAGS): the injected run must exit
# exactly 1 (a usage error exits 2 and dumps nothing).
define obs_smoke_cell
	rm -f _obs_smoke.jsonl
	dune exec bin/ltree_cli.exe -- crash-matrix $(2) \
	  --inject-cell-failure '$(1)' --bundle _obs_smoke.jsonl \
	  > /dev/null 2>&1; test $$? -eq 1
	dune exec bin/ltree_cli.exe -- bundle --validate _obs_smoke.jsonl
	grep -q '"kind": "cell", "name": "$(1)", .*"phase": "failed"' \
	  _obs_smoke.jsonl
	sed '2d' _obs_smoke.jsonl > _obs_smoke_cut.jsonl
	! dune exec bin/ltree_cli.exe -- bundle --validate _obs_smoke_cut.jsonl
	dune exec bin/ltree_cli.exe -- bundle --replay _obs_smoke.jsonl \
	  > /dev/null
endef

obs-smoke:
	$(call obs_smoke_cell,P6/torn,--ops 60 --nodes 60 --checkpoint-every 16)
	$(call obs_smoke_cell,S1/P7/torn,--shards 3 --ops 40 --nodes 60 \
	  --checkpoint-every 12)
	$(call obs_smoke_cell,primary:P6/torn,--replica --ops 24 --nodes 40 \
	  --group-commit 2 --checkpoint-every 8)
	dune exec bin/ltree_cli.exe -- replicate --ops 60 --nodes 60 \
	  --noise-every 5 --trace > /dev/null
	dune exec bin/ltree_cli.exe -- metrics --ops 100 --seed 1 --json \
	  > /dev/null
	dune exec bin/ltree_cli.exe -- metrics --ops 200 --seed 1 \
	  | grep -q '^query_join_comparisons_bucket'
	dune exec bin/ltree_cli.exe -- replicate --ops 60 --nodes 60 \
	  --metrics - | grep -q '^repl_send_attempts_bucket'
	dune exec bin/ltree_cli.exe -- top --ops 200 > /dev/null
	rm -f _obs_smoke.jsonl _obs_smoke_cut.jsonl

# Counter gate: run the four end-to-end workloads at smoke size, traced,
# seed 1, and require every deterministic counter to equal
# test/bench_counters.expected.jsonl.  Wall time is printed, not gated.
# A change that legitimately moves a counter regenerates the file with
# `python3 tools/bench_check.py --update` and names the moved counters.
bench-check:
	python3 tools/bench_check.py

ci:
	dune build @all && dune runtest --force && \
	$(MAKE) analyze && \
	$(MAKE) selfcheck-quick && $(MAKE) matrix-summaries && \
	$(MAKE) trace-smoke && $(MAKE) obs-smoke && \
	$(MAKE) bench-parallel-smoke && \
	$(MAKE) bench-shard-smoke && $(MAKE) bench-check && \
	dune exec bench/exp_query.exe -- --n 2000 --queries 100 \
	  --json _build/BENCH_query.smoke.json && \
	dune exec bench/exp_recovery.exe -- --ops 200 \
	  --json _build/BENCH_recovery.smoke.json > /dev/null && \
	dune exec bench/exp_replication.exe -- --ops 50 \
	  --json _build/BENCH_replication.smoke.json > /dev/null

bench:
	dune exec bench/main.exe

# The query fast-path experiment: sort-on-fetch baseline vs. the
# incremental label index on mixed insert/query workloads; emits
# per-workload rows to BENCH_query.json.
bench-query:
	dune exec bench/exp_query.exe -- --json BENCH_query.json

# Durability cost and recovery speed: journal-append overhead at group
# commit sizes 1/4/16/64, and recovery time vs. journal length; emits
# BENCH_recovery.json.
bench-recovery:
	dune exec bench/exp_recovery.exe -- --json BENCH_recovery.json

# Multicore speedup: batched structural joins over an immutable read
# snapshot at 1/2/4 domains, per workload and document size, plus the
# disabled-span overhead micro-bench; emits BENCH_parallel.json.  The
# >= 2x @ 4 domains assertion binds only on machines with >= 4 cores.
bench-parallel:
	dune exec bench/exp_parallel.exe -- --json BENCH_parallel.json

# Tiny run wired into `make ci`: exercises the pool, the determinism
# cross-check, the span fast-path bound and the record writer without
# the full sweep.
bench-parallel-smoke:
	dune exec bench/exp_parallel.exe -- \
	  --sizes 500 --domains-list 1,2 --reps 2 --batch 16 \
	  --json _build/BENCH_parallel.smoke.json > /dev/null

# Sharded fan-out: batched joins over K subtree shards at K in 1/2/4
# and 1/2/4 domains, hotspot and uniform documents; emits QPS, p99 and
# speedup rows to BENCH_shard.json.  The >= 2x @ K>=4 assertion binds
# only with >= 4 cores; on smaller boxes the bound is no-regression
# (>= 1.0x on one domain).
bench-shard:
	dune exec bench/exp_shard.exe -- --json BENCH_shard.json

# Tiny run wired into `make ci`: exercises the sharded fan-out path
# (the route-order merge across up to four shards), the
# sharded-vs-unsharded byte-identity cross-check and the record writer
# without the sweep.  n=2000 is the smallest size tried at which the
# one-domain K=4 floor holds; at n=400 four tasks cost more than the
# join they split.
bench-shard-smoke:
	dune exec bench/exp_shard.exe -- --n 2000 --shards-list 1,2,4 \
	  --domains-list 1,2 --reps 2 --batch 12 \
	  --json _build/BENCH_shard.smoke.json > /dev/null

# Journal-shipping cost: steady-state lag vs. group commit, cold-replica
# catch-up throughput, and failover time; emits BENCH_replication.json.
bench-replication:
	dune exec bench/exp_replication.exe -- --json BENCH_replication.json

tables:
	dune exec bench/main.exe -- --tables

examples:
	dune exec examples/quickstart.exe
	dune exec examples/document_editing.exe
	dune exec examples/query_engine.exe
	dune exec examples/tuning_advisor.exe
	dune exec examples/database_sync.exe

soak:
	dune exec bin/ltree_stress.exe -- 20000 1

clean:
	dune clean
