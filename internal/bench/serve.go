// Serving-layer benchmark: replays a Zipf-skewed mix of repeated workload
// queries against a mutating database from N goroutines, the regime the
// plan cache and the incrementally maintained ⟨A, I_A⟩ indexes are built
// for. It reports throughput, plan-cache hit rate, and the cold-compile vs
// cache-hit speedup on the hottest query. With Transport "http" the same
// replay drives the network front end (internal/server) over a loopback
// listener instead of calling the engine in-process, so the two numbers
// bracket the cost of the HTTP/JSON boundary. With Transport "sharded"
// (or Shards > 0) the replay drives the scatter/gather router of
// internal/shard over N engines, pricing horizontal partitioning against
// the single-engine baseline.
package bench

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/follower"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ServeConfig tunes the serving benchmark.
type ServeConfig struct {
	// Dataset is AIRCA, TFACC or MCBM.
	Dataset string
	// Scale and Seed parameterize data generation.
	Scale float64
	Seed  int64
	// Clients is the number of concurrent query goroutines.
	Clients int
	// Writers is the number of goroutines churning tuples (delete +
	// reinsert of sampled rows) while queries run.
	Writers int
	// Ops is the total number of queries replayed across all clients.
	Ops int
	// PoolSize caps the number of distinct workload queries replayed;
	// the Zipf draw selects among them.
	PoolSize int
	// ZipfS is the Zipf skew exponent (> 1; larger = more skewed).
	ZipfS float64
	// CacheSize overrides the engine's plan-cache capacity (0 = default).
	CacheSize int
	// LatencyProbes is how many timed runs the cold/hot comparison uses.
	LatencyProbes int
	// Transport selects how clients reach the engine: "engine" (default,
	// in-process Execute calls), "http" (the internal/server front end
	// over a loopback listener, queries shipped as rule text and answers
	// as JSON) or "sharded" (the internal/shard scatter/gather router,
	// called in-process).
	Transport string
	// Shards is the partition count for the sharded transport (a zero on
	// that transport means DefaultShards). Setting it on the http
	// transport serves the sharded cluster behind the front end.
	Shards int
	// ReshardTo, when > 0, triggers an online Reshard to that shard count
	// once half the replay ops have completed, pricing a live migration
	// under load. Requires a sharded serving layer (Shards > 0 or the
	// sharded transport).
	ReshardTo int
	// WriteMix is the fraction of client ops (in [0, 1)) replayed as tuple
	// writes — a delete+reinsert pair of a sampled live row — instead of
	// queries. It prices the write path directly: on a sharded layer every
	// such op crosses the anchor synchronously and the per-relation apply
	// queue asynchronously. 0 keeps the replay read-only apart from the
	// background Writers churn.
	WriteMix float64
	// ResidueMix is the fraction of client query ops (in [0, 1)) drawn from
	// a pool of non-distributable queries — shapes the router answers
	// itself over routed reads (a bounded plan, or the baseline when
	// uncovered) instead of routing whole. It prices residue routes
	// against single-shard and scatter routing. Requires a sharded serving
	// layer.
	ResidueMix float64
	// Followers is the number of read replicas behind the follower
	// transport: reads round-robin across them with a read-your-writes
	// MinLSN fence while writes go to the primary. 0 sends reads to the
	// primary itself (the single-node baseline the replica runs are
	// compared against). Only meaningful with Transport "follower".
	Followers int
	// Durable, when Dir is set, serves a crash-safe engine (or router)
	// that write-ahead-logs every tuple op to that directory before
	// acknowledging it, pricing durability against the in-memory write
	// path. The directory must be fresh — benchmarking over recovered
	// state would measure replay, not serving. Combine with WriteMix to
	// make the fsync policy visible in throughput.
	Durable core.DurableConfig
	// IVMOff disables incremental answer maintenance on the serving layer
	// (engines keep it on by default). Two runs differing only here price
	// materialized serving against plan-cache-only execution — pair with
	// WriteMix so the delta-maintenance cost on the write path is in the
	// measured mix too.
	IVMOff bool
}

// DefaultShards is the partition count used by the sharded transport when
// ServeConfig.Shards is zero.
const DefaultShards = 4

// DefaultServeConfig keeps a full run well under a second in -short test
// settings while still exercising real concurrency.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Dataset:       "AIRCA",
		Scale:         0.05,
		Seed:          2016,
		Clients:       8,
		Writers:       2,
		Ops:           4000,
		PoolSize:      40,
		ZipfS:         1.2,
		LatencyProbes: 25,
		Transport:     TransportEngine,
	}
}

// Transport values for ServeConfig.
const (
	TransportEngine  = "engine"
	TransportHTTP    = "http"
	TransportSharded = "sharded"
	// TransportFollower serves a durable primary over loopback HTTP plus
	// ServeConfig.Followers read replicas tailing its log; client reads
	// round-robin across the replicas with a MinLSN fence and writes go
	// to the primary, pricing read scale-out against the single node.
	TransportFollower = "follower"
)

// ServeResult reports one serving-benchmark run.
type ServeResult struct {
	Dataset string
	// Transport is the client path the replay used: "engine" for
	// in-process Execute calls, "http" for the loopback front end,
	// "sharded" for the scatter/gather router.
	Transport string
	// Followers is the read-replica count behind the follower transport
	// (0 elsewhere, and for its primary-only baseline run).
	Followers int
	// Shards is the partition count behind the replay (0 = unsharded) and
	// Routes the router's routing-decision counters (zero when unsharded).
	Shards int
	Routes shard.RouteStats
	// Residue is the distributed residue-executor snapshot at the end of a
	// sharded run; ResidueOps counts client ops replayed from the residue
	// pool under ResidueMix and ResidueQPS is their completion rate.
	Residue    shard.ResidueStats
	ResidueOps int64
	ResidueQPS float64
	// Procs and CPUs record the execution parallelism of the host
	// (GOMAXPROCS and the physical CPU count) so throughput numbers carry
	// their own context — sharded QPS ≈ baseline on a 1-vCPU box is the
	// expected reading, not a regression.
	Procs, CPUs int
	// Reshard reports the mid-replay migration when ReshardTo was set.
	Reshard  *shard.ReshardReport
	Ops      int
	Errors   int
	Duration time.Duration
	// QPS is completed queries per wall-clock second across all clients.
	QPS float64
	// MeanLatency is total per-request client time divided by completed
	// ops — on the http transport it includes JSON encoding and the
	// loopback round trip, so MeanLatency(http) − MeanLatency(engine)
	// prices the network boundary.
	MeanLatency time.Duration
	// Cache holds the plan-cache counter deltas over the serving phase
	// (the cold/hot latency probes are excluded); HitRate is the hit
	// fraction of those same counters. Entries is the live count at the
	// end of the run.
	Cache   cache.Stats
	HitRate float64
	// Mutations counts tuple writes applied during the run; WriteOps the
	// client ops that were delete+reinsert pairs under WriteMix (each
	// contributes two Mutations).
	Mutations int64
	WriteOps  int64
	// Apply is the apply-queue snapshot at the end of a sharded run:
	// Enqueued/Batches is the realized write coalescing.
	Apply shard.ApplyQueueStats
	// Durability is the write-ahead-log snapshot at the end of a durable
	// run (nil when the serving layer is in-memory). QPS here vs an
	// in-memory run with the same WriteMix prices the logging policy.
	Durability *wal.Stats
	// IVM is the materialized-answer snapshot at the end of the run
	// (summed across engines on a sharded layer); IVMOn records whether
	// maintenance was enabled. Hits vs Ops is the fraction of the replay
	// served in O(answer) without running a plan.
	IVM   ivm.Stats
	IVMOn bool
	// AllocsPerOp and AllocBytesPerOp are the process-wide heap
	// allocation deltas over the replay divided by completed ops, and
	// GCCycles / GCPause the garbage-collection cycles and total
	// stop-the-world pause the replay incurred. Writers and maintenance
	// goroutines are included — this is the serving cost, not a per-plan
	// micro-benchmark (see `make bench-exec` for those).
	AllocsPerOp     int64
	AllocBytesPerOp int64
	GCCycles        uint32
	GCPause         time.Duration
	// ColdLatency is the Execute latency floor (minimum over probes,
	// averaged across the probe set) with the plan cache bypassed — the
	// full compile pipeline; HotLatency the same floor for a plan-cache
	// hit; Speedup their ratio. Floors, not medians: both paths do
	// deterministic work, so the minimum is the signal and the spread
	// above it is scheduler/GC noise.
	ColdLatency, HotLatency time.Duration
	Speedup                 float64
}

// Format renders the result as an aligned report.
func (r *ServeResult) Format(w io.Writer) {
	fmt.Fprintf(w, "# serving benchmark on %s (transport: %s)\n", r.Dataset, r.Transport)
	fmt.Fprintf(w, "host\tGOMAXPROCS=%d, %d CPUs\n", r.Procs, r.CPUs)
	if r.Transport == TransportFollower {
		if r.Followers > 0 {
			fmt.Fprintf(w, "followers\t%d read replicas (fenced reads round-robin, writes to primary)\n", r.Followers)
		} else {
			fmt.Fprintf(w, "followers\t0 (primary-only baseline)\n")
		}
	}
	if r.Shards > 0 {
		fmt.Fprintf(w, "shards\t%d (routed: %d single-shard, %d scatter, %d residue)\n",
			r.Shards, r.Routes.Single, r.Routes.Scattered, r.Routes.Residue)
	}
	if r.ResidueOps > 0 {
		fmt.Fprintf(w, "residue\t%d ops at %.0f queries/s (%d evaluated, %d bytes shipped, %d broadcast rels)\n",
			r.ResidueOps, r.ResidueQPS, r.Residue.Evaluated,
			r.Residue.BytesShipped, r.Residue.BroadcastRels)
	}
	if r.Reshard != nil {
		fmt.Fprintf(w, "reshard\t%d→%d mid-replay: %d keyed rows moved, %d seeded, %v (ring epoch %d)\n",
			r.Reshard.From, r.Reshard.To, r.Reshard.Moved, r.Reshard.Seeded,
			r.Reshard.Duration.Round(time.Millisecond), r.Reshard.Epoch)
	}
	fmt.Fprintf(w, "ops\t%d (errors %d)\n", r.Ops, r.Errors)
	fmt.Fprintf(w, "duration\t%v\n", r.Duration.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput\t%.0f queries/s\n", r.QPS)
	fmt.Fprintf(w, "mean latency\t%v per query\n", r.MeanLatency)
	fmt.Fprintf(w, "memory\t%d allocs/op (%d B/op), %d GC cycles, %v total pause\n",
		r.AllocsPerOp, r.AllocBytesPerOp, r.GCCycles, r.GCPause.Round(time.Microsecond))
	fmt.Fprintf(w, "cache\thits %d  misses %d  evictions %d  hit-rate %.1f%%\n",
		r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions, 100*r.HitRate)
	fmt.Fprintf(w, "mutations\t%d tuple writes during run (%d write ops in the client mix)\n",
		r.Mutations, r.WriteOps)
	if r.IVMOn {
		fmt.Fprintf(w, "ivm\t%d views live (budget %d): %d hits served O(answer), %d delta applies, %d admitted, %d evicted, %d rejected, %d fallbacks, %d denied\n",
			r.IVM.Materialized, r.IVM.Budget, r.IVM.Hits, r.IVM.DeltaApplies,
			r.IVM.Admitted, r.IVM.Evicted, r.IVM.Rejected, r.IVM.Fallbacks, r.IVM.Denied)
	} else {
		fmt.Fprintf(w, "ivm\toff (plan-cache-only baseline)\n")
	}
	if r.Shards > 0 && r.Apply.Enqueued > 0 {
		avg := float64(r.Apply.Enqueued) / float64(max(r.Apply.Batches, 1))
		fmt.Fprintf(w, "apply queue\t%d ops in %d batches (avg %.1f ops/lock), max batch %d, depth %d at end\n",
			r.Apply.Enqueued, r.Apply.Batches, avg, r.Apply.MaxBatch, r.Apply.Depth)
	}
	if r.Durability != nil {
		d := r.Durability
		fmt.Fprintf(w, "durability\tfsync=%s  %d wal appends to lsn %d, %d segments (%d bytes), %d checkpoints\n",
			d.Fsync, d.Appends, d.LastLSN, d.Segments, d.SegmentBytes, d.Checkpoints)
		if d.Fsyncs > 0 {
			mean := float64(d.FsyncTotalMicros) / float64(d.Fsyncs)
			fmt.Fprintf(w, "fsync\t%d calls, mean %.0fµs\n", d.Fsyncs, mean)
		}
	}
	fmt.Fprintf(w, "latency floor\tcold %v  hot %v  speedup %.1fx\n",
		r.ColdLatency, r.HotLatency, r.Speedup)
}

// Serve runs the serving benchmark: build the dataset, assemble a pool of
// distinct workload queries (templates plus covered generator queries),
// then replay Ops Zipf-distributed draws from Clients goroutines while
// Writers churn tuples underneath. Tuple churn is deliberately concurrent:
// bounded incremental index maintenance keeps every cached plan valid, so
// the cache keeps serving throughout.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("bench: Clients must be >= 1, got %d", cfg.Clients)
	}
	if cfg.Writers < 0 {
		return nil, fmt.Errorf("bench: Writers must be >= 0, got %d", cfg.Writers)
	}
	if cfg.Ops < cfg.Clients {
		return nil, fmt.Errorf("bench: Ops (%d) must be >= Clients (%d)", cfg.Ops, cfg.Clients)
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("bench: ZipfS must be > 1 (Zipf skew exponent), got %g", cfg.ZipfS)
	}
	if cfg.WriteMix < 0 || cfg.WriteMix >= 1 {
		return nil, fmt.Errorf("bench: WriteMix must be in [0, 1), got %g", cfg.WriteMix)
	}
	if cfg.ResidueMix < 0 || cfg.ResidueMix >= 1 {
		return nil, fmt.Errorf("bench: ResidueMix must be in [0, 1), got %g", cfg.ResidueMix)
	}
	transport := cfg.Transport
	if transport == "" {
		transport = TransportEngine
	}
	if transport != TransportEngine && transport != TransportHTTP &&
		transport != TransportSharded && transport != TransportFollower {
		// Validated before data generation like the other config errors:
		// a typo must not cost a full dataset build first.
		return nil, fmt.Errorf("bench: unknown transport %q (want %q, %q, %q or %q)",
			transport, TransportEngine, TransportHTTP, TransportSharded, TransportFollower)
	}
	if cfg.Followers < 0 {
		return nil, fmt.Errorf("bench: Followers must be >= 0, got %d", cfg.Followers)
	}
	if cfg.Followers > 0 && transport != TransportFollower {
		return nil, fmt.Errorf("bench: Followers needs the %q transport, got %q", TransportFollower, transport)
	}
	if transport == TransportFollower {
		if cfg.Durable.Dir == "" {
			return nil, fmt.Errorf("bench: the follower transport needs a durable primary (set Durable.Dir)")
		}
		if cfg.Shards > 0 {
			return nil, fmt.Errorf("bench: the follower transport replicates a single durable engine; Shards must be 0")
		}
	}
	shards := cfg.Shards
	if transport == TransportSharded && shards < 1 {
		shards = DefaultShards
	}
	if cfg.ReshardTo < 0 {
		return nil, fmt.Errorf("bench: ReshardTo must be >= 0, got %d", cfg.ReshardTo)
	}
	if cfg.ReshardTo > 0 && shards < 1 {
		return nil, fmt.Errorf("bench: ReshardTo needs a sharded serving layer (set Shards or the sharded transport)")
	}
	if cfg.ResidueMix > 0 && shards < 1 {
		return nil, fmt.Errorf("bench: ResidueMix needs a sharded serving layer (set Shards or the sharded transport)")
	}
	durable := cfg.Durable.Dir != ""
	if durable && wal.HasState(cfg.Durable.Dir) {
		// Opening existing state would replay it into the generated
		// dataset — the run would price recovery, not serving.
		return nil, fmt.Errorf("bench: durable dir %s already holds log state; point the benchmark at a fresh directory", cfg.Durable.Dir)
	}
	d, err := workload.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	db, err := d.Gen(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The serving engine: durable when a log directory is set and the
	// layer is unsharded (a sharded durable layer logs at the router
	// instead, and eng stays a plain probe engine over the same db).
	var eng *core.Engine
	if durable && shards == 0 {
		eng, err = core.OpenDurable(d.Schema, d.Access, db, cfg.Durable)
	} else {
		eng, err = core.NewEngine(d.Schema, d.Access, db)
	}
	if err != nil {
		return nil, err
	}
	if cfg.CacheSize > 0 {
		eng.SetPlanCacheCapacity(cfg.CacheSize)
	}
	if cfg.IVMOff {
		eng.SetIVMConfig(ivm.Config{})
	}
	pool, err := servePool(eng, d, cfg)
	if err != nil {
		return nil, err
	}

	// The served Service: the engine itself, or the scatter/gather router
	// over it. The router partitions db across its shards at construction;
	// eng (still on db) keeps working as the cold/hot probe engine either
	// way.
	var svc core.Service = eng
	var router *shard.Router
	if shards > 0 {
		spec := shard.Spec{
			Shards:        shards,
			Keys:          d.ShardKeys,
			PlanCacheSize: cfg.CacheSize,
		}
		if durable {
			router, err = shard.OpenDurable(d.Schema, d.Access, db, spec, cfg.Durable)
		} else {
			router, err = shard.New(d.Schema, d.Access, db, spec)
		}
		if err != nil {
			return nil, err
		}
		if cfg.IVMOff {
			router.SetIVMConfig(ivm.Config{})
		}
		svc = router
	}

	// Under ResidueMix the replay mixes in queries the router must
	// decompose (residue routing). They ride in the same driver pool after
	// the Zipf-drawn base entries; clients index past baseLen to reach them.
	baseLen := len(pool)
	var residueLen int
	if cfg.ResidueMix > 0 {
		rpool, err := serveResiduePool(eng, router, d, cfg)
		if err != nil {
			return nil, err
		}
		residueLen = len(rpool)
		pool = append(pool, rpool...)
	}

	var drv serveDriver
	switch transport {
	case TransportHTTP:
		drv, err = newHTTPDriver(svc, d.Schema, pool)
	case TransportFollower:
		drv, err = newFollowerDriver(svc, d.Schema, pool, cfg)
	default:
		drv = &engineDriver{eng: svc, pool: pool, opts: core.DefaultOptions()}
	}
	if err != nil {
		return nil, err
	}
	defer drv.close()

	res := &ServeResult{
		Dataset:   cfg.Dataset,
		Transport: transport,
		Followers: cfg.Followers,
		Shards:    shards,
		Procs:     runtime.GOMAXPROCS(0),
		CPUs:      runtime.NumCPU(),
	}

	// Cold vs hot latency over a probe set of pool queries, before the
	// serving phase. Summing per-query floors across the set weights the
	// mix the way a replay does: join templates with expensive compiles
	// dominate, single-atom lookups contribute their (small) constant.
	if cfg.LatencyProbes > 0 {
		probeSet := pool
		if len(probeSet) > 8 {
			probeSet = probeSet[:8]
		}
		var coldSum, hotSum time.Duration
		for _, q := range probeSet {
			cold, hot, err := coldHot(eng, q, cfg.LatencyProbes)
			if err != nil {
				return nil, err
			}
			coldSum += cold
			hotSum += hot
		}
		res.ColdLatency = coldSum / time.Duration(len(probeSet))
		res.HotLatency = hotSum / time.Duration(len(probeSet))
		if hotSum > 0 {
			res.Speedup = float64(coldSum) / float64(hotSum)
		}
	}

	// Serving phase. The plan-cache delta is read from wherever the
	// replayed queries actually execute: the served service by default,
	// or the replica engines for a transport whose reads land elsewhere.
	cacheSrc := svc.CacheStats
	if cs, ok := drv.(cacheStatser); ok {
		cacheSrc = cs.cacheStats
	}
	before := cacheSrc()
	var (
		clientWG   sync.WaitGroup
		writerWG   sync.WaitGroup
		completed  atomic.Int64
		errCount   atomic.Int64
		mutations  atomic.Int64
		writeOps   atomic.Int64
		residueOps atomic.Int64
		latencyNs  atomic.Int64
		stop       atomic.Bool
	)
	perClient := cfg.Ops / cfg.Clients
	// Halfway signal for the mid-replay reshard: completed.Add returns a
	// unique value per op, so exactly one client observes the half mark
	// and closes the channel — no polling. stopCh mirrors stop for
	// waiters that must also wake when an early-aborted replay never
	// reaches the mark.
	half := int64(cfg.Ops / 2)
	halfway := make(chan struct{})
	if half == 0 {
		close(halfway)
	}
	stopCh := make(chan struct{})

	// One shared sample of live rows per relation: writers churn them in
	// the background, and WriteMix client ops replay them in the
	// foreground. Delete-then-reinsert keeps the instance satisfying A at
	// every quiescent point.
	sampleRels, samples := writeSamples(d.Schema, db)

	for w := 0; w < cfg.Writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(w)))
			for !stop.Load() && len(sampleRels) > 0 {
				rel := sampleRels[rng.Intn(len(sampleRels))]
				rows := samples[rel]
				t := rows[rng.Intn(len(rows))]
				if err := drv.delete(rel, t); err != nil {
					errCount.Add(1)
					return
				}
				if err := drv.insert(rel, t); err != nil {
					errCount.Add(1)
					return
				}
				mutations.Add(2)
			}
		}(w)
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(baseLen-1))
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if cfg.WriteMix > 0 && len(sampleRels) > 0 && rng.Float64() < cfg.WriteMix {
					rel := sampleRels[rng.Intn(len(sampleRels))]
					rows := samples[rel]
					t := rows[rng.Intn(len(rows))]
					if err := drv.delete(rel, t); err != nil {
						errCount.Add(1)
						return
					}
					if err := drv.insert(rel, t); err != nil {
						errCount.Add(1)
						return
					}
					mutations.Add(2)
					writeOps.Add(1)
				} else if residueLen > 0 && rng.Float64() < cfg.ResidueMix {
					if err := drv.query(baseLen + rng.Intn(residueLen)); err != nil {
						errCount.Add(1)
						return
					}
					residueOps.Add(1)
				} else if err := drv.query(int(zipf.Uint64())); err != nil {
					errCount.Add(1)
					return
				}
				latencyNs.Add(int64(time.Since(t0)))
				if completed.Add(1) == half {
					close(halfway)
				}
			}
		}(c)
	}
	// Mid-replay reshard: wait for half the ops, migrate live, record the
	// accounting. Joined after the clients so the result always carries it.
	reshardDone := make(chan struct{})
	if cfg.ReshardTo > 0 {
		go func() {
			defer close(reshardDone)
			select {
			case <-halfway:
			case <-stopCh:
			}
			if completed.Load() < half {
				// Replay died early (client errors); nothing left to price.
				return
			}
			rep, err := router.Reshard(context.Background(), cfg.ReshardTo)
			if err != nil {
				errCount.Add(1)
				return
			}
			res.Reshard = rep
		}()
	} else {
		close(reshardDone)
	}
	// Clients are bounded loops; writers churn until the clients finish.
	clientWG.Wait()
	res.Duration = time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	stop.Store(true)
	close(stopCh)
	writerWG.Wait()
	// Join the resharder after stop is set, so an early-aborted replay
	// (client errors before the halfway mark) releases it instead of
	// deadlocking on a level of completed ops that will never come.
	<-reshardDone
	res.Ops = int(completed.Load())
	res.Errors = int(errCount.Load())
	res.Mutations = mutations.Load()
	res.WriteOps = writeOps.Load()
	if res.Duration > 0 {
		res.QPS = float64(res.Ops) / res.Duration.Seconds()
	}
	if res.Ops > 0 {
		res.MeanLatency = time.Duration(latencyNs.Load() / int64(res.Ops))
		res.AllocsPerOp = int64(memAfter.Mallocs-memBefore.Mallocs) / int64(res.Ops)
		res.AllocBytesPerOp = int64(memAfter.TotalAlloc-memBefore.TotalAlloc) / int64(res.Ops)
	}
	res.GCCycles = memAfter.NumGC - memBefore.NumGC
	res.GCPause = time.Duration(memAfter.PauseTotalNs - memBefore.PauseTotalNs)
	after := cacheSrc()
	if router != nil {
		res.Routes = router.RouteStats()
		res.Apply = router.ApplyQueueStats()
		res.Residue = router.ResidueStats()
	}
	res.IVMOn = !cfg.IVMOff
	if res.IVMOn {
		if is, ok := drv.(ivmStatser); ok {
			res.IVM = is.ivmStats()
		} else if router != nil {
			res.IVM = router.IVMStats()
		} else {
			res.IVM = eng.IVMStats()
		}
	}
	res.ResidueOps = residueOps.Load()
	if res.Duration > 0 {
		res.ResidueQPS = float64(res.ResidueOps) / res.Duration.Seconds()
	}
	res.Cache = cache.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Purges:    after.Purges - before.Purges,
		Entries:   after.Entries,
	}
	res.HitRate = res.Cache.HitRate()
	if durable {
		// Snapshot the log counters before Close seals the segments, then
		// close cleanly: an append/fsync failure the replay never saw
		// (because SyncInterval absorbs it) still surfaces as an error.
		if router != nil {
			if st, ok := router.DurabilityStats(); ok {
				res.Durability = &st
			}
			if err := router.Close(); err != nil {
				return nil, fmt.Errorf("bench: closing durable router: %w", err)
			}
		} else {
			if st, ok := eng.DurabilityStats(); ok {
				res.Durability = &st
			}
			if err := eng.Close(); err != nil {
				return nil, fmt.Errorf("bench: closing durable engine: %w", err)
			}
		}
	}
	return res, nil
}

// serveDriver abstracts the client path of the replay: the engine driver
// calls Execute in-process, the HTTP driver round-trips every operation
// through the network front end over loopback.
type serveDriver interface {
	// query replays pool entry i.
	query(i int) error
	// insert / delete apply one tuple write.
	insert(rel string, t value.Tuple) error
	delete(rel string, t value.Tuple) error
	// close releases transport resources (the loopback server).
	close()
}

// cacheStatser is an optional serveDriver refinement for transports whose
// reads execute somewhere other than the served service: the report's
// plan-cache hit rate must come from the engines that answered the
// queries, not from a primary that only saw the writes.
type cacheStatser interface {
	cacheStats() cache.Stats
}

// ivmStatser mirrors cacheStatser for the materialized-answer counters.
type ivmStatser interface {
	ivmStats() ivm.Stats
}

// engineDriver is the in-process client path over any core.Service — a
// single engine or the sharded router.
type engineDriver struct {
	eng  core.Service
	pool []ra.Query
	opts core.Options
}

func (d *engineDriver) query(i int) error {
	_, _, err := d.eng.Execute(d.pool[i], d.opts)
	return err
}

func (d *engineDriver) insert(rel string, t value.Tuple) error {
	_, err := d.eng.Insert(rel, t)
	return err
}

func (d *engineDriver) delete(rel string, t value.Tuple) error {
	_, err := d.eng.Delete(rel, t)
	return err
}

func (d *engineDriver) close() {}

// httpDriver serves eng on a loopback listener and replays through the
// typed client, shipping queries as rule text the way a remote caller
// would. Pool queries are pre-rendered once (parser.Format) so the replay
// measures the wire path, not repeated formatting.
type httpDriver struct {
	srv   *server.Server
	cli   *server.Client
	texts []string
}

func newHTTPDriver(eng core.Service, schema ra.Schema, pool []ra.Query) (*httpDriver, error) {
	texts := make([]string, len(pool))
	for i, q := range pool {
		text, err := parser.Format(q, schema)
		if err != nil {
			return nil, fmt.Errorf("bench: pool query %d not expressible as rule text: %w", i, err)
		}
		texts[i] = text
	}
	srv := server.New(eng, server.Config{
		Logger: slog.New(slog.DiscardHandler),
		// The replay is a throughput test; don't cap rows or let the
		// default timeout interfere at high concurrency.
		MaxRows:        -1,
		RequestTimeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) //nolint:errcheck
	cli := server.NewClient(srv.Addr())
	if err := cli.WaitReady(context.Background(), 10*time.Second); err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck
		return nil, err
	}
	return &httpDriver{srv: srv, cli: cli, texts: texts}, nil
}

func (d *httpDriver) query(i int) error {
	_, err := d.cli.Query(context.Background(), d.texts[i])
	return err
}

func (d *httpDriver) insert(rel string, t value.Tuple) error {
	_, err := d.cli.Insert(context.Background(), rel, []value.Tuple{t})
	return err
}

func (d *httpDriver) delete(rel string, t value.Tuple) error {
	_, err := d.cli.Delete(context.Background(), rel, []value.Tuple{t})
	return err
}

func (d *httpDriver) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
}

// followerDriver serves the durable primary on a loopback listener, opens
// cfg.Followers read replicas tailing its log (each with its own data
// directory under the primary's and its own loopback front end), and
// replays reads round-robin across the replicas with a read-your-writes
// MinLSN fence. Writes go to the primary and advance the fence, so every
// read observes all writes the replay acknowledged before it — the
// correctness contract the replicas are priced under.
type followerDriver struct {
	svc       core.Service
	primary   *server.Server
	pcli      *server.Client
	nodes     []*follower.Node
	srvs      []*server.Server
	readClis  []*server.Client
	texts     []string
	next      atomic.Uint64
	lastWrite atomic.Uint64
}

func newFollowerDriver(eng core.Service, schema ra.Schema, pool []ra.Query, cfg ServeConfig) (*followerDriver, error) {
	texts := make([]string, len(pool))
	for i, q := range pool {
		text, err := parser.Format(q, schema)
		if err != nil {
			return nil, fmt.Errorf("bench: pool query %d not expressible as rule text: %w", i, err)
		}
		texts[i] = text
	}
	quiet := slog.New(slog.DiscardHandler)
	serveOne := func(svc core.Service) (*server.Server, *server.Client, error) {
		srv := server.New(svc, server.Config{
			Logger:         quiet,
			MaxRows:        -1,
			RequestTimeout: time.Minute,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		go srv.Serve(ln) //nolint:errcheck
		cli := server.NewClient(srv.Addr())
		if err := cli.WaitReady(context.Background(), 10*time.Second); err != nil {
			srv.Shutdown(context.Background()) //nolint:errcheck
			return nil, nil, err
		}
		return srv, cli, nil
	}
	psrv, pcli, err := serveOne(eng)
	if err != nil {
		return nil, err
	}
	d := &followerDriver{svc: eng, primary: psrv, pcli: pcli, texts: texts}
	for i := 0; i < cfg.Followers; i++ {
		// The replica directories live under the primary's data dir; the
		// log's segment listing matches exact file-name patterns, so the
		// subdirectories are invisible to it.
		node, err := follower.Open(context.Background(), follower.Config{
			Primary: "http://" + psrv.Addr(),
			DataDir: filepath.Join(cfg.Durable.Dir, fmt.Sprintf("follower-%d", i)),
			ID:      fmt.Sprintf("bench-follower-%d", i),
			Logger:  quiet,
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("bench: opening follower %d: %w", i, err)
		}
		d.nodes = append(d.nodes, node)
		fsrv, fcli, err := serveOne(node)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("bench: serving follower %d: %w", i, err)
		}
		d.srvs = append(d.srvs, fsrv)
		d.readClis = append(d.readClis, fcli)
	}
	if len(d.readClis) == 0 {
		// Primary-only baseline: reads hit the primary's front end too, so
		// the replica runs differ only in where reads land.
		d.readClis = []*server.Client{pcli}
	}
	return d, nil
}

// cacheStats sums the plan-cache counters of the replicas the replayed
// reads round-robin across; the primary-only baseline reads the served
// service directly.
func (d *followerDriver) cacheStats() cache.Stats {
	if len(d.nodes) == 0 {
		return d.svc.CacheStats()
	}
	var sum cache.Stats
	for _, n := range d.nodes {
		st := n.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Purges += st.Purges
		sum.Entries += st.Entries
	}
	return sum
}

// ivmStats merges the replicas' materialized-answer counters — the views
// the replayed reads were actually served from, maintained by the
// replication stream rather than direct writes.
func (d *followerDriver) ivmStats() ivm.Stats {
	if len(d.nodes) == 0 {
		if eng, ok := d.svc.(*core.Engine); ok {
			return eng.IVMStats()
		}
		return ivm.Stats{}
	}
	var sum ivm.Stats
	for _, n := range d.nodes {
		sum = sum.Merge(n.IVMStats())
	}
	return sum
}

func (d *followerDriver) query(i int) error {
	cli := d.readClis[d.next.Add(1)%uint64(len(d.readClis))]
	_, err := cli.QueryOpts(context.Background(), server.QueryRequest{
		Query:  d.texts[i],
		MinLSN: d.lastWrite.Load(),
	})
	return err
}

// advanceFence raises the read fence to the LSN of an acknowledged write.
func (d *followerDriver) advanceFence(lsn uint64) {
	for {
		cur := d.lastWrite.Load()
		if lsn <= cur || d.lastWrite.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

func (d *followerDriver) insert(rel string, t value.Tuple) error {
	resp, err := d.pcli.Insert(context.Background(), rel, []value.Tuple{t})
	if err == nil {
		d.advanceFence(resp.LSN)
	}
	return err
}

func (d *followerDriver) delete(rel string, t value.Tuple) error {
	resp, err := d.pcli.Delete(context.Background(), rel, []value.Tuple{t})
	if err == nil {
		d.advanceFence(resp.LSN)
	}
	return err
}

func (d *followerDriver) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range d.srvs {
		_ = srv.Shutdown(ctx)
	}
	for _, n := range d.nodes {
		_ = n.Close()
	}
	_ = d.primary.Shutdown(ctx)
}

// servePool assembles the distinct-query pool: parsed covered templates
// first, then random covered generator queries up to cfg.PoolSize. On the
// http transport the pool is additionally restricted to queries
// expressible in the rule language, since that is how they travel.
func servePool(eng *core.Engine, d *workload.Dataset, cfg ServeConfig) ([]ra.Query, error) {
	needText := cfg.Transport == TransportHTTP || cfg.Transport == TransportFollower
	var pool []ra.Query
	for _, tpl := range d.Templates() {
		if len(pool) >= cfg.PoolSize {
			break
		}
		if !tpl.Covered {
			continue
		}
		q, err := eng.Parse(tpl.Src)
		if err != nil {
			return nil, err
		}
		pool = append(pool, q)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	p := workload.DefaultQueryParams()
	for tries := 0; len(pool) < cfg.PoolSize && tries < cfg.PoolSize*50; tries++ {
		p.Sel = 3 + rng.Intn(5)
		p.Join = rng.Intn(3)
		p.UniDiff = rng.Intn(2)
		q, err := d.RandomQuery(p, rng)
		if err != nil {
			return nil, err
		}
		res, err := eng.Check(q)
		if err != nil || !res.Covered {
			continue
		}
		if needText {
			if _, err := parser.Format(q, d.Schema); err != nil {
				continue
			}
		}
		pool = append(pool, q)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("bench: no covered queries for %s", cfg.Dataset)
	}
	return pool, nil
}

// serveResiduePool assembles the non-distributable query pool for
// ResidueMix: random covered generator queries, kept only when the
// router's own classification would hand them to the distributed residue
// executor. Join- and difference-heavy parameters make such shapes
// common; the pool is small on purpose (residue plans are the expensive
// tail, the mix fraction prices them, not their variety).
func serveResiduePool(eng *core.Engine, router *shard.Router, d *workload.Dataset, cfg ServeConfig) ([]ra.Query, error) {
	needText := cfg.Transport == TransportHTTP
	want := cfg.PoolSize / 4
	if want < 4 {
		want = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	p := workload.DefaultQueryParams()
	var pool []ra.Query
	for tries := 0; len(pool) < want && tries < want*400; tries++ {
		p.Sel = 2 + rng.Intn(4)
		p.Join = 1 + rng.Intn(2)
		p.UniDiff = rng.Intn(2)
		q, err := d.RandomQuery(p, rng)
		if err != nil {
			return nil, err
		}
		kind, err := router.RouteKind(q)
		if err != nil || kind != "residue" {
			continue
		}
		res, err := eng.Check(q)
		if err != nil || !res.Covered {
			continue
		}
		if needText {
			if _, err := parser.Format(q, d.Schema); err != nil {
				continue
			}
		}
		pool = append(pool, q)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("bench: no covered residue-routed queries for %s (ResidueMix needs shapes the router cannot distribute)", cfg.Dataset)
	}
	return pool, nil
}

// coldHot measures the Execute latency floor of q through the full
// compile pipeline (cache bypassed) and through a plan-cache hit. The
// minimum over the probes is reported: both paths do deterministic work,
// so the floor is the signal and everything above it is scheduler and GC
// noise that would otherwise dominate run-to-run variance.
func coldHot(eng *core.Engine, q ra.Query, probes int) (cold, hot time.Duration, err error) {
	coldOpts := core.DefaultOptions()
	coldOpts.Cache = false
	colds := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		if _, _, err := eng.Execute(q, coldOpts); err != nil {
			return 0, 0, err
		}
		colds = append(colds, time.Since(t0))
	}

	hotOpts := core.DefaultOptions()
	// Warm the cache, then time hits only.
	if _, _, err := eng.Execute(q, hotOpts); err != nil {
		return 0, 0, err
	}
	hots := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		_, rep, err := eng.Execute(q, hotOpts)
		if err != nil {
			return 0, 0, err
		}
		if !rep.CacheHit {
			return 0, 0, fmt.Errorf("bench: warm execution missed the cache")
		}
		hots = append(hots, time.Since(t0))
	}
	return minOf(colds), minOf(hots), nil
}

func minOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[0]
}

// writeSamples collects up to 64 live rows per relation for the churn
// writers and the WriteMix client ops, returning the relations that have
// any (so pickers never land on an empty sample).
func writeSamples(schema ra.Schema, db *store.DB) ([]string, map[string][]value.Tuple) {
	samples := map[string][]value.Tuple{}
	var rels []string
	for _, rel := range schema.Relations() {
		rows, err := db.Rows(rel)
		if err != nil || len(rows) == 0 {
			continue
		}
		n := 64
		if n > len(rows) {
			n = len(rows)
		}
		samples[rel] = rows[:n]
		rels = append(rels, rel)
	}
	return rels, samples
}
