# Tier-1 gate plus the extended checks CI runs on every push.

GO ?= go

.PHONY: check build vet test race gates fuzz-smoke bench-smoke bench-compare bench-serve bench-shard bench-durable bench-ivm bench-follower bench-exec docs-check

# check is the full CI pipeline: compile, vet, race-enabled tests, the
# allocation and access-budget gates, a short fuzz smoke of the parser and
# canonicalizer, and the documentation gate.
check: build vet race gates fuzz-smoke docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test (and subtest) execution order, flushing out
# inter-test state dependence.
test:
	$(GO) test -shuffle=on ./...

# The pinned lines below run the crash harnesses (SIGKILL mid-write-storm,
# then recovery and a differential sweep against the oracle) and the WAL
# regression tests by name: the suite above runs them too, but a future
# -short would silently drop the subprocess tests, and these lines would
# fail loudly instead.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -run 'TestCrashRecovery' -v ./internal/core
	$(GO) test -race -run 'TestFollowerCrashResume' -v ./internal/follower
	$(GO) test -race -shuffle=on -run 'TestRecordsTailReadOpensOnlyFinalSegment|TestRecoverDBRejectsDuplicateLSN' -v ./internal/wal

# gates runs the two budget gates the race step never runs: both files are
# build-tagged !race (race instrumentation skews allocation counts), so
# they need a plain go test, exactly as CI runs them.
gates:
	$(GO) test -run 'TestExecAllocBudget' -v ./internal/exec
	$(GO) test -run 'TestSeedAccessBudget' -v ./internal/ivm

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/parser
	$(GO) test -run=^$$ -fuzz=FuzzNormalize -fuzztime=10s ./internal/ra
	$(GO) test -run=^$$ -fuzz=FuzzRouteDecision -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzResiduePlan -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzDeltaPlan -fuzztime=10s ./internal/ivm
	$(GO) test -run=^$$ -fuzz=FuzzBatchExec -fuzztime=10s ./internal/exec

# bench-smoke runs the repo's benchmark (benchmark/README.md) for a fiftieth
# of its measuring time: all seven workloads, every answer checked against
# the oracle, the op-stream and oracle digests checked against their pins,
# and the serving-path assertions (engine-hot mostly materialized,
# engine-wide still admitting). ~15 s; its timings mean nothing.
bench-smoke:
	$(GO) run ./benchmark -smoke

# bench-compare runs the full suite (both passes of all seven workloads,
# ~4 min), writes its artifact to OUT and diffs it against BASE (the PR 11
# baseline unless overridden): non-zero exit when a pinned end-to-end
# metric regressed beyond its BENCHMARK.json bound. A PR commits its
# artifact: make bench-compare OUT=docs/bench/BENCH_<pr>.json
# BASE=docs/bench/BENCH_<parent>.json.
OUT ?= benchmark/out/BENCH.json
BASE ?= benchmark/results/BENCH_11.json
bench-compare:
	$(GO) run ./benchmark -json $(OUT)
	$(GO) run ./benchmark -compare $(BASE) $(OUT)

# bench-exec prints the executor's per-operator micro-benchmarks: the
# batched columnar evaluator against the tuple-at-a-time reference kept in
# test code, on selection, join, union and fetch plans, with ns/op and
# allocs/op (-benchmem). The allocation gate (TestExecAllocBudget, run by
# the normal test suite outside -race) requires ≤ 48 allocs/op per plan.
bench-exec:
	$(GO) test -run=^$$ -bench=BenchmarkExec -benchmem ./internal/exec

# docs-check is the documentation gate: gofmt-clean sources, vet, and
# cmd/docscheck (package doc comments everywhere; doc comments on every
# exported identifier of the root package and internal/server).
docs-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck

# bench-serve prints the concurrent serving benchmark (QPS, plan-cache hit
# rate, cold-vs-cached speedup) on all three datasets, in-process and (for
# AIRCA) through the HTTP front end over loopback.
bench-serve:
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -transport http
	$(GO) run ./cmd/boundedctl -op serve -dataset TFACC -scale 0.1
	$(GO) run ./cmd/boundedctl -op serve -dataset MCBM -scale 0.1

# bench-shard prices horizontal partitioning: the same Zipf replay against
# the single engine and against the scatter/gather router at 1, 2, 4 and 8
# shards, with the routing-decision breakdown per run, plus one run that
# reshards 2 → 4 live at the replay's halfway mark to price an online
# migration under load, a write-heavy pair (40% of client ops are tuple
# writes) that prices the batched broadcast apply queue against the
# unsharded baseline, and a non-distributable-heavy row (30% of client
# queries residue-routed) that prices residue routes: bounded plans over
# routed fetches, and the baseline over routed scans when uncovered.
bench-shard:
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 1
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 2
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 4
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 8
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 2 -reshard 4
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.4
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 4 -writemix 0.4
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 4 -residuemix 0.3

# bench-ivm prices incremental answer maintenance: the same mixed replay
# (20% of client ops are tuple writes) with materialized answers off
# (-ivm=false, plan-cache-only baseline — every repeat re-executes because
# writes keep bumping no state but still contend) and on (hot fingerprints
# cross admission and repeats are served O(answer), with tuple writes
# folded through the delta rules instead of invalidating). The second row
# should show a multiple of the first's QPS; its ivm line reports views
# live, O(answer) serves and delta applies.
bench-ivm:
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.2 -ivm=false
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.2

# bench-follower prices read replicas: the same mixed replay (10% of
# client ops are tuple writes) against a durable primary alone, then with
# one and two followers tailing its write-ahead log. Reads round-robin
# across the replicas carrying a read-your-writes fence (MinLSN = the
# replayer's last acknowledged write), so the QPS column prices fenced
# replica reads, not stale ones. Each row gets its own mktemp -d: the
# benchmark refuses a directory that already holds log state.
bench-follower:
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.1 -transport follower -followers 0 -data-dir $$(mktemp -d)
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.1 -transport follower -followers 1 -data-dir $$(mktemp -d)
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.1 -transport follower -followers 2 -data-dir $$(mktemp -d)

# bench-durable prices the write-ahead log: the same write-heavy replay
# (40% of client ops are tuple writes) in-memory, then logging to a fresh
# temp directory under each fsync policy. fsync=off should sit within ~10%
# of the in-memory row (the log is a buffered sequential append);
# fsync=interval amortizes syncs over a 50ms window; fsync=commit pays a
# disk sync per acknowledged write and prices true no-loss durability.
# Each row gets its own mktemp -d: the benchmark refuses a directory that
# already holds log state.
bench-durable:
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.4
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.4 -data-dir $$(mktemp -d) -fsync off
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.4 -data-dir $$(mktemp -d) -fsync interval
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -writemix 0.4 -data-dir $$(mktemp -d) -fsync commit
	$(GO) run ./cmd/boundedctl -op serve -dataset AIRCA -scale 0.1 -ops 20000 -transport sharded -shards 4 -writemix 0.4 -data-dir $$(mktemp -d) -fsync interval
