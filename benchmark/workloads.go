package main

import "fmt"

// workloadSpec is one named workload: which service it stands up, how it
// draws ops, and which serving path the run must be seen to take — a
// workload that silently stops exercising the layer it exists for (views
// no longer admitted, plan cache too small) must fail, not report numbers.
type workloadSpec struct {
	name   string
	why    string
	kind   serviceKind
	stream streamSpec
	// paths checks the serving-path shares of the measured queries.
	paths func(p pathShares) error
	// churnsViews makes the traced pass fail unless its script admits views.
	churnsViews bool
}

// pathShares are the shares of measured queries served from a
// materialized view, by running a cached plan, and by compiling first.
type pathShares struct{ materialized, cacheHit, cold float64 }

const (
	// wideKeys sizes the 256-fingerprint pool of engine-exec and
	// engine-wide: four times the 64-view budget, and small enough that no
	// shard of the 512-entry plan cache (16 shards of 32, keyed by a hash
	// seeded per process) overflows — at 400 fingerprints one usually does,
	// and the recompiles it causes move ops/s by more than any bound.
	wideKeys = 32
	hotZipf  = 1.2
)

var hotStream = streamSpec{keysPerShape: hotKeys, zipf: hotZipf, writeShare: 0.05}

var workloads = []workloadSpec{
	{
		name:   "engine-hot",
		why:    "40 fingerprints, Zipf 1.2, 5% writes on one engine: the working set fits the view budget, so ivm, cache and ra serve nearly every read",
		kind:   kindEngine,
		stream: hotStream,
		paths: func(p pathShares) error {
			if p.materialized < 0.95 {
				return fmt.Errorf("materialized share %.3f, want >= 0.95", p.materialized)
			}
			return nil
		},
	},
	{
		name:   "engine-exec",
		why:    "256 fingerprints, uniform, read-only, IVM off: fits the plan cache, so every read is a cache hit that runs its plan; exec and store do the work, ivm none",
		kind:   kindNoIVM,
		stream: streamSpec{keysPerShape: wideKeys},
		paths: func(p pathShares) error {
			if p.materialized != 0 || p.cacheHit < 0.99 {
				return fmt.Errorf("cache-hit share %.3f (want >= 0.99), materialized %.3f (want 0)", p.cacheHit, p.materialized)
			}
			return nil
		},
	},
	{
		name:        "engine-wide",
		why:         "the engine-exec stream with IVM on: the working set is 4x the view budget, so view admission and eviction, not serving, dominate",
		kind:        kindEngine,
		stream:      streamSpec{keysPerShape: wideKeys},
		churnsViews: true,
	},
	{
		name:   "engine-adhoc",
		why:    "every read a covered query never seen before: each pays cover check, minimization, plan build and execution; cache and ivm are bypassed",
		kind:   kindEngine,
		stream: streamSpec{},
		paths: func(p pathShares) error {
			if p.cold != 1 {
				return fmt.Errorf("cold share %.3f, want 1", p.cold)
			}
			return nil
		},
	},
	{
		name:   "engine-write",
		why:    "the hot 40 fingerprints with 50% writes on a durable engine (fsync=interval): wal append and checkpoints, index maintenance and view deltas at once",
		kind:   kindDurable,
		stream: streamSpec{keysPerShape: hotKeys, zipf: hotZipf, writeShare: 0.5},
	},
	{
		name:   "sharded-hot",
		why:    "the engine-hot stream through a 4-shard router: only the shard layer differs, so the gap to engine-hot is the sharded tax",
		kind:   kindSharded,
		stream: hotStream,
	},
	{
		name:   "http-hot",
		why:    "the engine-hot stream as rule text over loopback HTTP on 2 connections: only server and parser differ, so the gap is the wire boundary",
		kind:   kindHTTP,
		stream: hotStream,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef is a metric's unit, which direction is better, and (for
// end-to-end metrics) the share of the old value by which it may worsen
// before -compare calls it a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics every workload reports with tracing off, in
// the order BENCHMARK.json lists them. One bound serves all seven
// workloads, so each is set by the workload on which the metric is least
// steady: over ten seeds on the reference host the quartile distance, as a
// share of the median, reached 8-10% for ops_per_s, query_p50_us and
// query_p99_us on engine-wide (about 800 ops in 8 s, each view build 2-70
// ms), 8% for allocs_per_op on engine-write (checkpoints per run vary), 7%
// for setup_s and 2% for heap_mb; every other pairing stayed under 6%
// (p99: 9%). A bound is at least twice the worst spread seen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"query_p50_us", "us", "lower", 0.20},
	{"query_p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.20},
	{"heap_mb", "MB", "lower", 0.10},
}

// extras are end-to-end metrics only some workloads have (writes, the
// open loop, the log). The result line of a single run cannot carry them —
// it must hold the same metrics for every workload — so they are printed,
// stored in the suite artifact and judged by -compare only. The two
// open-loop readings have no bound and are not judged: on the reference
// host the generator shares two CPUs with the server, the knee sits at
// one of the offered rates (4500/s), and between two runs of one commit
// open_p99_us has read 6 ms and 38 ms and max_rate_ok 4500 and 1500.
var extras = []metricDef{
	{"write_p50_us", "us", "lower", 0.20},
	{"write_p99_us", "us", "lower", 0.25},
	{"open_p99_us", "us", "lower", 0},
	{"max_rate_ok", "1/s", "higher", 0},
	{"log_bytes_per_write", "B", "lower", 0.01}, // per logged mutation; a write op logs two
}
