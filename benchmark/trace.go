package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cover"
	"repro/internal/exec"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/workload"
)

// span is one timed call the benchmark made into the system: which layer
// function (Name), on which service (Svc), for which op of the traced
// script (Op, -1 outside the script), nested under which other span
// (Parent, -1 for a root), and when, in nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Svc    string `json:"svc"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is what "spans off" means.
type recorder struct {
	t0    time.Time
	spans []span
}

// time runs f as a span and returns the span's index (-1 with spans off).
func (r *recorder) time(name, svc string, op, parent int, f func()) int {
	if r == nil {
		f()
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Svc: svc, Op: op, Parent: parent})
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	r.spans[id].Start, r.spans[id].End = int64(start), int64(end)
	return id
}

// dur is the duration of span id in nanoseconds.
func (r *recorder) dur(id int) float64 { return float64(r.spans[id].End - r.spans[id].Start) }

// samples is a set of durations in nanoseconds.
type samples []float64

// quantile is the ceil(q*n)-th smallest sample, 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c))-1e-9)) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s samples) p50() float64 { return median(s) }

// durations returns the durations of the spans of svc named name.
func (r *recorder) durations(svc, name string) samples {
	var out samples
	for i := range r.spans {
		if sp := &r.spans[i]; sp.Svc == svc && sp.Name == name {
			out = append(out, r.dur(i))
		}
	}
	return out
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

const (
	// scriptOps is how many ops of client 0's stream the traced pass
	// replays after the same warm-up as the end-to-end pass; with one
	// client and a fixed count, every count repeats. engine-wide serves
	// about 100 ops/s, which is what keeps this from being larger.
	scriptOps = 1000
	// ownQueries is how many distinct queries of the script the engine
	// probes repeat, and probeRounds how often: a point lookup costs 2, so
	// it crosses the admission score of 32 on its 16th hit.
	ownQueries  = 40
	probeRounds = 20
	// probeWrites is the length of the write probe.
	probeWrites = 128
)

// scriptOp is one op of the traced script, resolved to what it runs.
type scriptOp struct {
	o op
	q *query // nil for a write
}

// buildScript draws the first scriptOps ops of client 0's stream.
func buildScript(in *inputs, seed int64, n int) ([]scriptOp, error) {
	st := newStream(in, seed, 0, numClients)
	script := make([]scriptOp, 0, n)
	for len(script) < n {
		o, ok := st.next()
		if !ok {
			return nil, fmt.Errorf("ad-hoc query space exhausted after %d ops", len(script))
		}
		so := scriptOp{o: o}
		switch {
		case o.write:
		case in.adhoc != nil:
			q, err := in.adhocQuery(o.idx)
			if err != nil {
				return nil, err
			}
			so.q = q
		default:
			so.q = in.pool[o.idx]
		}
		script = append(script, so)
	}
	return script, nil
}

// scriptOutcome is what replaying the script on the service under test showed.
type scriptOutcome struct {
	wall                         time.Duration
	queries, failed              int
	mat, hit, bounded            int
	err                          error
	cacheHits, cacheMisses       int64
	cacheEvictions               int64
	cacheEntries                 int
	ivmHits, ivmAdmits, ivmEvict int64
	ivmDenied, ivmFallbacks      int64
	ivmLive                      int
}

// playScript warms svc up the way the end-to-end pass does, then runs the
// script on it one op after the other, recording an "execute" or "write"
// span per op when rec is set, and reads the service's counters before and
// after the script.
func playScript(svc *service, in *inputs, script []scriptOp, rec *recorder) (*scriptOutcome, error) {
	if err := warm(svc, in, 1); err != nil {
		return nil, err
	}
	// The spans-off and the spans-on run both start from a collected heap,
	// or whichever of the two a collection cycle lands in looks 20-50% slower.
	runtime.GC()
	out := &scriptOutcome{}
	c0, v0 := svc.svc.CacheStats(), svc.ivmStats()
	start := time.Now()
	for i, so := range script {
		var (
			res result
			err error
		)
		if so.q == nil {
			rec.time("write", "sut", i, -1, func() { err = svc.write(in.writes[so.o.idx]) })
		} else {
			rec.time("execute", "sut", i, -1, func() { res, err = svc.query(so.q) })
			out.queries++
		}
		switch {
		case err != nil:
			out.failed++
			if out.err == nil {
				out.err = fmt.Errorf("%s: %w", in.render(so.o), err)
			}
		case so.q != nil:
			if res.materialized {
				out.mat++
			} else if res.cacheHit {
				out.hit++
			}
			if res.bounded || res.materialized {
				out.bounded++
			}
		}
	}
	out.wall = time.Since(start)
	c1, v1 := svc.svc.CacheStats(), svc.ivmStats()
	out.cacheHits, out.cacheMisses = c1.Hits-c0.Hits, c1.Misses-c0.Misses
	out.cacheEvictions, out.cacheEntries = c1.Evictions-c0.Evictions, c1.Entries
	out.ivmHits, out.ivmAdmits, out.ivmEvict = v1.Hits-v0.Hits, v1.Admitted-v0.Admitted, v1.Evicted-v0.Evicted
	out.ivmDenied, out.ivmFallbacks = v1.Denied-v0.Denied, v1.Fallbacks-v0.Fallbacks
	out.ivmLive = v1.Materialized
	return out, nil
}

// stageTimes are stage durations keyed by query text, which the probes
// subtract from whole-call times: ra (normalize plus fingerprint) and run,
// from a separate pass that repeats just those two on each distinct query,
// the way a warm Execute meets them — in the replay they follow a compile
// that has emptied the CPU caches, and cost about twice as much.
type stageTimes struct {
	ra, run map[string]samples
}

// stageRepeats is how often the warm pass repeats each distinct query.
const stageRepeats = 8

// stageOutcome is what the staged replay counted.
type stageOutcome struct {
	queries, covered                 int
	steps                            int
	accessed, fetched, scanned, rows int64
	counters                         exec.Counters // deltas over the exec stage
	allocsPerRun                     float64
	times                            stageTimes
	fingerprints                     []string // distinct, in first-seen order
	err                              error
	sumP50                           float64 // sum of the stage medians, ns
	normP50, fpP50, runP50, parseP50 float64
	checkP50, minaP50, buildP50      float64
	runP99                           float64
}

// replayStages takes every query of the script through the public
// functions of the layers one at a time — the same calls, in the same
// order, that core.Engine.compile and runCompiled make — as child spans of
// one "replay" span per op. Execute is opaque from outside; this is how
// the benchmark sees inside it without instrumenting the program.
func replayStages(ds *workload.Dataset, db *store.DB, script []scriptOp, rec *recorder) *stageOutcome {
	out := &stageOutcome{times: stageTimes{ra: map[string]samples{}, run: map[string]samples{}}}
	seen := map[string]bool{}
	var plans []*plan.Plan
	type compiled struct {
		q *query
		p *plan.Plan
	}
	var distinct []compiled
	fail := func(stage string, q *query, err error) {
		if out.err == nil {
			out.err = fmt.Errorf("stage %s of %q: %w", stage, q.text, err)
		}
	}
	c0 := exec.ReadCounters()
	for i, so := range script {
		if so.q == nil {
			continue
		}
		q := so.q
		out.queries++
		rec.time("replay", "stages", i, -1, func() {
			parent := len(rec.spans) - 1
			var (
				parsed, norm ra.Query
				fp           string
				res          *cover.Result
				err          error
			)
			rec.time("parser.parse", "stages", i, parent, func() { parsed, err = parser.Parse(q.text, ds.Schema) })
			if err != nil {
				fail("parse", q, err)
				return
			}
			rec.time("ra.normalize", "stages", i, parent, func() { norm, err = ra.Normalize(parsed, ds.Schema) })
			if err != nil {
				fail("normalize", q, err)
				return
			}
			rec.time("ra.fingerprint", "stages", i, parent, func() { fp = ra.FingerprintNormalized(norm) })
			first := !seen[fp]
			if first {
				seen[fp] = true
				out.fingerprints = append(out.fingerprints, fp)
			}
			rec.time("cover.check", "stages", i, parent, func() { res, err = cover.Check(norm, ds.Schema, ds.Access) })
			if err != nil {
				fail("cover.check", q, err)
				return
			}
			if !res.Covered {
				// The templates are covered as written; an uncovered one
				// would take the rewrite and fallback paths, which the
				// stages do not model.
				fail("cover.check", q, fmt.Errorf("not covered"))
				return
			}
			out.covered++
			var p *plan.Plan
			rec.time("minimize.mina", "stages", i, parent, func() {
				am, merr := minimize.MinA(res, minimize.DefaultOptions())
				if err = merr; err == nil {
					rec.time("cover.recheck", "stages", i, len(rec.spans)-1, func() { res, err = cover.Check(norm, ds.Schema, am) })
				}
			})
			if err != nil {
				fail("minimize", q, err)
				return
			}
			rec.time("plan.build", "stages", i, parent, func() { p, err = plan.Build(res) })
			if err != nil {
				fail("plan.build", q, err)
				return
			}
			out.steps += len(p.Steps)
			plans = append(plans, p)
			if first {
				distinct = append(distinct, compiled{q, p})
			}
			var (
				t  *exec.Table
				st exec.Stats
			)
			rec.time("exec.run", "stages", i, parent, func() { t, st, err = exec.Run(p, db) })
			if err != nil {
				fail("exec.run", q, err)
				return
			}
			out.accessed += st.Accessed
			out.fetched += st.Fetched
			out.scanned += st.Scanned
			out.rows += int64(t.Len())
		})
	}
	c1 := exec.ReadCounters()
	out.counters = exec.Counters{
		Batches: c1.Batches - c0.Batches, Rows: c1.Rows - c0.Rows,
		ArenaGets: c1.ArenaGets - c0.ArenaGets, ArenaNews: c1.ArenaNews - c0.ArenaNews,
		SigHit: c1.SigHit - c0.SigHit, SigMiss: c1.SigMiss - c0.SigMiss,
	}
	// Allocations per plan run, from a second loop with nothing else in it.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range plans {
		if _, _, err := exec.Run(p, db); err != nil && out.err == nil {
			out.err = err
		}
	}
	runtime.ReadMemStats(&m1)
	if len(plans) > 0 {
		out.allocsPerRun = float64(m1.Mallocs-m0.Mallocs) / float64(len(plans))
	}
	for r := 0; r < stageRepeats; r++ {
		for _, c := range distinct {
			id := rec.time("ra.warm", "stages", -1, -1, func() {
				if norm, err := ra.Normalize(c.q.q, ds.Schema); err == nil {
					ra.FingerprintNormalized(norm)
				}
			})
			out.times.ra[c.q.text] = append(out.times.ra[c.q.text], rec.dur(id))
			id = rec.time("exec.run.warm", "stages", -1, -1, func() { _, _, _ = exec.Run(c.p, db) })
			out.times.run[c.q.text] = append(out.times.run[c.q.text], rec.dur(id))
		}
	}
	p50 := func(name string) float64 { return rec.durations("stages", name).p50() }
	out.parseP50, out.normP50, out.fpP50 = p50("parser.parse"), p50("ra.normalize"), p50("ra.fingerprint")
	out.checkP50, out.minaP50, out.buildP50 = p50("cover.check"), p50("minimize.mina"), p50("plan.build")
	runs := rec.durations("stages", "exec.run")
	out.runP50, out.runP99 = runs.p50(), runs.quantile(0.99)
	// minimize.mina contains cover.recheck, as compile's MinimizeTime does not;
	// either way both are paid once per cold execute.
	out.sumP50 = out.normP50 + out.fpP50 + out.checkP50 + out.minaP50 + out.buildP50 + out.runP50
	return out
}

// runTraced is the per-layer pass: the script on the service under test
// with spans off and on, the staged replay, and the layer probes.
func runTraced(spec workloadSpec, cfg config) (*passResult, error) {
	off, err := setUp(spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &passResult{
		Workload: spec.name, Correct: true, Metrics: map[string]metricValue{},
		StreamDigest: streamDigest(off.in, cfg.seed, numClients),
		OracleDigest: oracleDigest(off.in),
	}
	n := scriptOps
	if cfg.smoke {
		n /= 10
	}
	script, err := buildScript(off.in, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	plain, err := playScript(off.svc, off.in, script, nil)
	if err != nil {
		return nil, err
	}
	if err := off.svc.close(); err != nil {
		return nil, err
	}

	on, err := setUp(spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec := &recorder{t0: time.Now()}
	traced, err := playScript(on.svc, on.in, script, rec)
	if err != nil {
		return nil, err
	}
	asked, bad, cerr := on.svc.check(on.in)
	dbSize, indexEntries := on.svc.svc.DBSize(), on.svc.svc.IndexEntries()
	if err := on.svc.close(); err != nil {
		return nil, err
	}
	res.Attempted = int64(2*len(script) + asked)
	res.Failed = int64(plain.failed + traced.failed + bad)
	for _, err := range []error{plain.err, traced.err, cerr} {
		if err != nil {
			res.fail("%v", err)
		}
	}

	set := func(name string, v float64) { res.metric(name, v, nil) }
	nq, nops := float64(max(traced.queries, 1)), float64(len(script))
	set("trace.overhead_ratio", plain.wall.Seconds()/traced.wall.Seconds())
	set("core.path_materialized_ratio", float64(traced.mat)/nq)
	set("core.path_cachehit_ratio", float64(traced.hit)/nq)
	set("core.path_cold_ratio", float64(traced.queries-traced.mat-traced.hit)/nq)
	set("core.bounded_ratio", float64(traced.bounded)/nq)
	set("cache.hit_ratio", ratio(float64(traced.cacheHits), float64(traced.cacheHits+traced.cacheMisses)))
	set("cache.evictions_per_kop", 1000*float64(traced.cacheEvictions)/nops)
	set("cache.entries", float64(traced.cacheEntries))
	set("ivm.serve_ratio", float64(traced.ivmHits)/nq)
	set("ivm.admits_per_kop", 1000*float64(traced.ivmAdmits)/nops)
	set("ivm.evictions_per_kop", 1000*float64(traced.ivmEvict)/nops)
	set("ivm.denied", float64(traced.ivmDenied))
	set("ivm.fallbacks", float64(traced.ivmFallbacks))
	set("ivm.views_live", float64(traced.ivmLive))
	set("store.db_size", float64(dbSize))
	set("store.index_entries", float64(indexEntries))
	if spec.churnsViews && traced.ivmAdmits == 0 {
		res.fail("no view admitted in %d ops: the workload no longer churns views", len(script))
	}

	if err := runProbes(on.in, script, cfg, rec, res); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.outDir, "trace-"+spec.name+".json")); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
