package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestServe runs the serving benchmark at test scale and checks the
// acceptance envelope: ≥ 90% of the Zipf replay's reads must skip
// compilation (plan-cache hit or materialized view), and the plan cache
// must make the repeated-query path ≥ 5x faster than cold compilation.
// The floor is on reads, not on the plan cache's own hit rate: with IVM
// on, views serve most repeats without a plan-cache lookup, so the plan
// cache sees only the Zipf tail and its hit rate sits at the floor.
func TestServe(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Scale = 0.03
	cfg.Ops = 2000
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors", res.Errors)
	}
	if res.Ops == 0 || res.QPS <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.Mutations == 0 {
		t.Error("writers applied no mutations; the benchmark is not exercising churn")
	}
	t.Logf("%.2f%% of reads skipped compilation; plan-cache hit rate %.2f%%", 100*res.SkipRate, 100*res.HitRate)
	if res.SkipRate < 0.9 {
		t.Errorf("%.1f%% of reads skipped compilation, want ≥ 90%%", 100*res.SkipRate)
	}
	if res.Speedup < 5 {
		t.Errorf("cached path speedup %.1fx < 5x (cold %v, hot %v)",
			res.Speedup, res.ColdLatency, res.HotLatency)
	}

	var sb strings.Builder
	res.Format(&sb)
	out := sb.String()
	for _, want := range []string{"hit-rate", "speedup", "queries/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestServeHTTPTransport replays the same benchmark through the network
// front end over loopback: every query is shipped as rule text, every
// mutation as a JSON batch, and reads must keep skipping compilation
// across the wire exactly as they do in-process.
func TestServeHTTPTransport(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Transport = TransportHTTP
	cfg.Scale = 0.03
	cfg.Ops = 800
	cfg.Clients = 4
	cfg.Writers = 1
	cfg.PoolSize = 16
	cfg.LatencyProbes = 5
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors over HTTP", res.Errors)
	}
	if res.Transport != TransportHTTP {
		t.Fatalf("want transport %q in the result, got %q", TransportHTTP, res.Transport)
	}
	if res.Ops == 0 || res.QPS <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.Mutations == 0 {
		t.Error("writers applied no mutations over HTTP")
	}
	t.Logf("%.2f%% of reads skipped compilation over HTTP; plan-cache hit rate %.2f%%", 100*res.SkipRate, 100*res.HitRate)
	if res.SkipRate < 0.9 {
		t.Errorf("%.1f%% of reads skipped compilation over HTTP, want ≥ 90%%", 100*res.SkipRate)
	}
	if res.MeanLatency <= 0 {
		t.Error("mean latency not measured")
	}
	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "transport: http") {
		t.Errorf("report missing transport line:\n%s", sb.String())
	}
}

// TestServeFollowerTransport replays reads against follower replicas
// with the MinLSN fence while writes go to the durable primary: the
// differential contract (every fenced read observes every acknowledged
// write) is enforced by the fence itself — a violation would surface as
// a 504 or a wrong answer, both counted as errors.
func TestServeFollowerTransport(t *testing.T) {
	for _, followers := range []int{0, 2} {
		cfg := DefaultServeConfig()
		cfg.Transport = TransportFollower
		cfg.Followers = followers
		cfg.Durable = core.DurableConfig{Dir: t.TempDir(), CheckpointEvery: -1}
		cfg.Scale = 0.03
		cfg.Ops = 400
		cfg.Clients = 4
		cfg.Writers = 1
		cfg.WriteMix = 0.1
		cfg.PoolSize = 12
		cfg.LatencyProbes = 0
		res, err := Serve(cfg)
		if err != nil {
			t.Fatalf("followers=%d: %v", followers, err)
		}
		if res.Errors != 0 {
			t.Fatalf("followers=%d: %d serving errors", followers, res.Errors)
		}
		if res.Ops == 0 || res.QPS <= 0 {
			t.Fatalf("followers=%d: no throughput measured: %+v", followers, res)
		}
		if res.Followers != followers {
			t.Fatalf("want %d followers in the result, got %d", followers, res.Followers)
		}
		if res.WriteOps == 0 {
			t.Errorf("followers=%d: no write ops in the client mix", followers)
		}
		var sb strings.Builder
		res.Format(&sb)
		if !strings.Contains(sb.String(), "followers\t") {
			t.Errorf("report missing followers line:\n%s", sb.String())
		}
	}
}

// TestServeRejectsBadConfig pins the validation errors: these used to
// panic (nil Zipf for s <= 1, division by zero for Clients = 0).
func TestServeRejectsBadConfig(t *testing.T) {
	bad := []func(*ServeConfig){
		func(c *ServeConfig) { c.ZipfS = 1.0 },
		func(c *ServeConfig) { c.ZipfS = 0 },
		func(c *ServeConfig) { c.Clients = 0 },
		func(c *ServeConfig) { c.Writers = -1 },
		func(c *ServeConfig) { c.Ops = 1; c.Clients = 8 },
		func(c *ServeConfig) { c.Dataset = "nosuch" },
		func(c *ServeConfig) { c.Transport = "smoke-signals" },
		func(c *ServeConfig) { c.WriteMix = 1 },
		func(c *ServeConfig) { c.WriteMix = -0.2 },
		func(c *ServeConfig) { c.ResidueMix = 1 },
		func(c *ServeConfig) { c.ResidueMix = -0.2 },
		func(c *ServeConfig) { c.ResidueMix = 0.3 }, // needs a sharded layer
		func(c *ServeConfig) { c.Followers = -1 },
		func(c *ServeConfig) { c.Followers = 2 },                 // needs the follower transport
		func(c *ServeConfig) { c.Transport = TransportFollower }, // needs Durable.Dir
		func(c *ServeConfig) {
			c.Transport = TransportFollower
			c.Durable.Dir = "unused"
			c.Shards = 2 // follower transport is unsharded
		},
	}
	for i, mutate := range bad {
		cfg := DefaultServeConfig()
		mutate(&cfg)
		if _, err := Serve(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestServeAllDatasets smoke-tests the three workloads at minimal scale.
func TestServeAllDatasets(t *testing.T) {
	for _, name := range []string{"AIRCA", "TFACC", "MCBM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := DefaultServeConfig()
			cfg.Dataset = name
			cfg.Scale = 0.02
			cfg.Ops = 400
			cfg.Clients = 4
			cfg.Writers = 1
			cfg.PoolSize = 12
			cfg.LatencyProbes = 5
			res, err := Serve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d serving errors", res.Errors)
			}
			if res.Cache.Hits == 0 {
				t.Error("no cache hits at all")
			}
		})
	}
}

// TestServeShardedTransport replays the benchmark through the
// scatter/gather router: the replay must complete error-free at the same
// cache effectiveness as the single engine, exercise every routing
// strategy, and keep ≥ 90% of reads off the compiler, within a point of
// the unsharded run.
func TestServeShardedTransport(t *testing.T) {
	base := DefaultServeConfig()
	base.Scale = 0.03
	base.Ops = 2000
	single, err := Serve(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Transport = TransportSharded
	cfg.Shards = 4
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors", res.Errors)
	}
	if res.Shards != 4 {
		t.Errorf("result reports %d shards, want 4", res.Shards)
	}
	if res.Routes.Single == 0 {
		t.Error("no queries took the single-shard fast path")
	}
	if res.Routes.Single+res.Routes.Scattered+res.Routes.Residue != int64(res.Ops) {
		t.Errorf("routing decisions %+v do not add up to %d ops", res.Routes, res.Ops)
	}
	if res.Mutations == 0 {
		t.Error("writers applied no mutations through the router")
	}
	t.Logf("%.2f%% of sharded reads skipped compilation (single engine %.2f%%)", 100*res.SkipRate, 100*single.SkipRate)
	if res.SkipRate < 0.9 {
		t.Errorf("%.1f%% of sharded reads skipped compilation, want ≥ 90%%", 100*res.SkipRate)
	}
	if res.SkipRate < single.SkipRate-0.01 {
		t.Errorf("sharded compile-skip rate %.2f%% more than a point below single-engine %.2f%%",
			100*res.SkipRate, 100*single.SkipRate)
	}

	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "shards\t4") {
		t.Errorf("report missing shard line:\n%s", sb.String())
	}
}

// TestServeReshardMidReplay prices a live 2→4 migration under the Zipf
// replay: the run must stay error-free, the reshard must complete and be
// reported, and the result must carry the host parallelism line that
// contextualizes sharded QPS numbers.
func TestServeReshardMidReplay(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Transport = TransportSharded
	cfg.Shards = 2
	cfg.ReshardTo = 4
	cfg.Scale = 0.03
	cfg.Ops = 2000
	cfg.LatencyProbes = 5
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors during live reshard", res.Errors)
	}
	if res.Reshard == nil {
		t.Fatal("mid-replay reshard did not report")
	}
	if res.Reshard.From != 2 || res.Reshard.To != 4 || res.Reshard.Epoch != 2 {
		t.Errorf("reshard report: %+v", res.Reshard)
	}
	if res.Reshard.Moved == 0 || res.Reshard.Seeded == 0 {
		t.Errorf("reshard moved=%d seeded=%d, want both > 0", res.Reshard.Moved, res.Reshard.Seeded)
	}
	if res.Procs < 1 || res.CPUs < 1 {
		t.Errorf("host parallelism not recorded: GOMAXPROCS=%d CPUs=%d", res.Procs, res.CPUs)
	}

	var sb strings.Builder
	res.Format(&sb)
	out := sb.String()
	for _, want := range []string{"GOMAXPROCS=", "reshard\t2→4 mid-replay"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// ReshardTo without a sharded layer must be rejected up front.
	bad := DefaultServeConfig()
	bad.ReshardTo = 4
	if _, err := Serve(bad); err == nil {
		t.Error("ReshardTo on an unsharded config was accepted")
	}
}

// TestServeWriteMixSharded prices the write-heavy mix against the
// sharded layer: client write ops flow through the router's synchronous
// owner/anchor commit plus the batched broadcast apply queue, the run
// stays error-free, and the result carries the apply-queue accounting
// that shows non-anchor lock acquisitions are O(batches), not O(writes).
func TestServeWriteMixSharded(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Scale = 0.03
	cfg.Ops = 2000
	cfg.Transport = TransportSharded
	cfg.Shards = 2
	cfg.WriteMix = 0.4
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors under the write mix", res.Errors)
	}
	if res.WriteOps == 0 {
		t.Fatal("WriteMix 0.4 produced no client write ops")
	}
	queries := int64(res.Ops) - res.WriteOps
	if got := res.Routes.Single + res.Routes.Scattered + res.Routes.Residue; got != queries {
		t.Errorf("routing decisions %+v sum to %d, want the %d query ops", res.Routes, got, queries)
	}
	if res.Apply.Enqueued == 0 {
		t.Fatal("no broadcast writes were enqueued")
	}
	if res.Apply.Errors != 0 {
		t.Errorf("apply queue recorded %d store errors", res.Apply.Errors)
	}
	if res.Apply.Batches <= 0 || res.Apply.Batches > res.Apply.Enqueued {
		t.Errorf("implausible batching: %+v", res.Apply)
	}
	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "apply queue") {
		t.Errorf("report missing the apply-queue line:\n%s", sb.String())
	}
}

// TestServeResidueMixSharded prices the non-distributable mix: a slice
// of client queries is drawn from a residue-routed pool (cross-key
// joins, differences over partitioned operands), the run stays
// error-free, and the result carries the residue accounting — ops, QPS,
// and the residue-route counters.
func TestServeResidueMixSharded(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Scale = 0.03
	cfg.Ops = 1500
	cfg.Transport = TransportSharded
	cfg.Shards = 2
	cfg.ResidueMix = 0.3
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors under the residue mix", res.Errors)
	}
	if res.ResidueOps == 0 {
		t.Fatal("ResidueMix 0.3 produced no residue query ops")
	}
	if res.ResidueQPS <= 0 {
		t.Errorf("residue ops recorded but QPS %.2f not computed", res.ResidueQPS)
	}
	if res.Routes.Residue < res.ResidueOps {
		t.Errorf("router counted %d residue routes for %d residue client ops",
			res.Routes.Residue, res.ResidueOps)
	}
	if res.Residue.BroadcastRels == 0 {
		t.Error("residue stats report no broadcast relations on AIRCA")
	}
	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "residue") {
		t.Errorf("report missing the residue line:\n%s", sb.String())
	}
}

// TestServeDurable replays a write-heavy mix against a write-ahead-logged
// serving layer, single-engine then sharded, and checks the report carries
// the durability rows that price the logging policy.
func TestServeDurable(t *testing.T) {
	base := DefaultServeConfig()
	base.Scale = 0.03
	base.Ops = 1200
	base.Clients = 4
	base.Writers = 1
	base.PoolSize = 16
	base.LatencyProbes = 5
	base.WriteMix = 0.3

	for _, tc := range []struct {
		name      string
		transport string
		shards    int
		fsync     wal.Policy
	}{
		{name: "engine", transport: TransportEngine, fsync: wal.SyncOff},
		{name: "sharded", transport: TransportSharded, shards: 2, fsync: wal.SyncInterval},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Transport = tc.transport
			cfg.Shards = tc.shards
			cfg.Durable = core.DurableConfig{
				Dir:             t.TempDir(),
				CheckpointEvery: -1,
				WAL:             wal.Options{Fsync: tc.fsync},
			}
			res, err := Serve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d serving errors on the durable layer", res.Errors)
			}
			if res.WriteOps == 0 {
				t.Fatal("WriteMix produced no client write ops")
			}
			if res.Durability == nil {
				t.Fatal("durable run reports no Durability stats")
			}
			if res.Durability.Appends < 2*res.WriteOps {
				t.Errorf("only %d wal appends for %d delete+reinsert write ops",
					res.Durability.Appends, res.WriteOps)
			}
			if res.Durability.LastLSN == 0 || res.Durability.Segments == 0 {
				t.Errorf("implausible log state: %+v", res.Durability)
			}
			var sb strings.Builder
			res.Format(&sb)
			if !strings.Contains(sb.String(), "durability\tfsync="+tc.fsync.String()) {
				t.Errorf("report missing the durability row:\n%s", sb.String())
			}

			// Reusing the directory must refuse: the benchmark would
			// otherwise price recovery replay as serving.
			if _, err := Serve(cfg); err == nil {
				t.Error("Serve accepted a directory that already holds log state")
			}
		})
	}
}

// TestServeIVM pins the materialized-answer accounting: a default run
// under a write mix must admit hot fingerprints, serve repeats from the
// maintained answer, fold the writes through the delta rules, and report
// all of it; an -ivm=false run must report the plan-cache-only baseline
// with zeroed counters.
func TestServeIVM(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Scale = 0.03
	cfg.Ops = 2000
	cfg.WriteMix = 0.2
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors", res.Errors)
	}
	if !res.IVMOn {
		t.Fatal("default run reports IVM off")
	}
	if res.IVM.Admitted == 0 {
		t.Error("Zipf-hot fingerprints under a write mix never crossed admission")
	}
	if res.IVM.Hits == 0 {
		t.Error("no repeats were served from a maintained answer")
	}
	if res.IVM.DeltaApplies == 0 {
		t.Error("client writes never reached the delta rules")
	}
	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "ivm\t") || !strings.Contains(sb.String(), "O(answer)") {
		t.Errorf("report missing the ivm row:\n%s", sb.String())
	}

	off := cfg
	off.IVMOff = true
	baseline, err := Serve(off)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Errors != 0 {
		t.Fatalf("%d serving errors with IVM off", baseline.Errors)
	}
	if baseline.IVMOn {
		t.Fatal("IVMOff run reports IVM on")
	}
	if baseline.IVM.Admitted != 0 || baseline.IVM.Hits != 0 {
		t.Errorf("IVMOff run still materialized: %+v", baseline.IVM)
	}
	sb.Reset()
	baseline.Format(&sb)
	if !strings.Contains(sb.String(), "ivm\toff") {
		t.Errorf("baseline report missing the ivm off row:\n%s", sb.String())
	}
}

// TestServeInMemoryReportsNoDurability pins the default: without a log
// directory the result carries no durability block.
func TestServeInMemoryReportsNoDurability(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Scale = 0.02
	cfg.Ops = 200
	cfg.Clients = 2
	cfg.Writers = 1
	cfg.PoolSize = 8
	cfg.LatencyProbes = 2
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Durability != nil {
		t.Fatalf("in-memory run reports durability stats: %+v", res.Durability)
	}
}
