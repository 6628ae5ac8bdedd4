package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The layer probes. A workload's own stream reaches only some layers (a
// read-only stream never writes, an ad-hoc one is never served from a
// view, only one workload has a router in it), yet a traced run must
// report every per-layer metric as measured. So besides replaying the
// script on the service under test, every traced run stands up the other
// services too and takes the same fixed measurements on each:
//
//   - on two plain engines (IVM off, IVM on) it repeats the script's own
//     first ownQueries distinct queries probeRounds times, which yields
//     cold, cache-hit and materialized executes of this workload's queries;
//   - on an engine, a 4-shard router, a durable engine and an HTTP server
//     it repeats the seed's 40-query hot pool (all eight shapes, all three
//     route kinds) and then the write probe, which yields each transport's
//     cost and, by subtraction from the plain engine, its tax.
//
// Counts and ratios come from the script on the service under test and
// differ per workload; the hot-pool probes are the layer's cost on a
// standard input and differ per seed only.

// probeSample is one timed call of a probe: which query, in which round,
// how long, and what the call reported.
type probeSample struct {
	round int
	q     *query
	ns    float64
	res   result
	admit bool // the engine admitted a view during the call
}

// probeQueries asks every query of qs on svc, rounds times over.
func probeQueries(svc *service, label string, qs []*query, rounds int, rec *recorder) ([]probeSample, error) {
	var out []probeSample
	for r := 0; r < rounds; r++ {
		for _, q := range qs {
			var (
				res result
				err error
			)
			before := svc.ivmStats().Admitted
			id := rec.time("execute", label, -1, -1, func() { res, err = svc.query(q) })
			if err != nil {
				return nil, fmt.Errorf("%s probe %q: %w", label, q.text, err)
			}
			out = append(out, probeSample{
				round: r, q: q, ns: rec.dur(id), res: res,
				admit: svc.ivmStats().Admitted > before,
			})
		}
	}
	return out, nil
}

// probeWriteOps runs the write probe on svc and returns the durations.
func probeWriteOps(svc *service, label string, in *inputs, rec *recorder) (samples, error) {
	var out samples
	for i := 0; i < probeWrites; i++ {
		w := in.writes[i%len(in.writes)]
		var err error
		id := rec.time("write", label, -1, -1, func() { err = svc.write(w) })
		if err != nil {
			return nil, fmt.Errorf("%s write probe %s %v: %w", label, w.rel, w.t, err)
		}
		out = append(out, rec.dur(id))
	}
	return out, nil
}

// steady keeps the samples of the later half of the rounds, when caches
// are warm and admission has settled, grouped by query text.
func steady(ps []probeSample, rounds int, keep func(probeSample) bool) map[string]samples {
	out := map[string]samples{}
	for _, p := range ps {
		if p.round >= rounds/2 && (keep == nil || keep(p)) {
			out[p.q.text] = append(out[p.q.text], p.ns)
		}
	}
	return out
}

// flat pools grouped samples.
func flat(m map[string]samples) samples {
	var out samples
	for _, s := range m {
		out = append(out, s...)
	}
	return out
}

// medianDiff is the median over queries of (median a) - (sum of median b's)
// for the queries present in a and in every b.
func medianDiff(a map[string]samples, bs ...map[string]samples) float64 {
	var diffs samples
	for text, s := range a {
		d, ok := s.p50(), true
		for _, b := range bs {
			if len(b[text]) == 0 {
				ok = false
				break
			}
			d -= b[text].p50()
		}
		if ok {
			diffs = append(diffs, d)
		}
	}
	return diffs.p50()
}

// ownDistinct returns the first n distinct queries of the script.
func ownDistinct(script []scriptOp, n int) []*query {
	seen := map[string]bool{}
	var out []*query
	for _, so := range script {
		if so.q != nil && !seen[so.q.text] && len(out) < n {
			seen[so.q.text] = true
			out = append(out, so.q)
		}
	}
	return out
}

// fresh stands up a probe service over a newly generated database.
func fresh(kind serviceKind, cfg config) (*workload.Dataset, *service, error) {
	ds, db, err := generate()
	if err != nil {
		return nil, nil, err
	}
	svc, err := newService(kind, ds, db, cfg)
	return ds, svc, err
}

func runProbes(in *inputs, script []scriptOp, cfg config, rec *recorder, res *passResult) error {
	set := func(name string, v float64) { res.metric(name, v, nil) }
	own := ownDistinct(script, ownQueries)
	std := in.probe
	us := usOf

	// --- IVM-off engine: stages, cold and cache-hit executes, stores ------
	ds, noivm, err := fresh(kindNoIVM, cfg)
	if err != nil {
		return err
	}
	st := replayStages(ds, noivm.eng.DB(), script, rec)
	if st.err != nil {
		res.fail("%v", st.err)
	}
	nq := float64(max(st.queries, 1))
	set("parser.parse_us", us(st.parseP50))
	set("ra.normalize_us", us(st.normP50))
	set("ra.fingerprint_us", us(st.fpP50))
	set("cover.check_us", us(st.checkP50))
	set("cover.covered_ratio", float64(st.covered)/nq)
	set("minimize.mina_us", us(st.minaP50))
	set("plan.build_us", us(st.buildP50))
	set("plan.steps_per_plan", float64(st.steps)/nq)
	set("exec.run_us", us(st.runP50))
	set("exec.run_p99_us", us(st.runP99))
	set("exec.accessed_per_query", float64(st.accessed)/nq)
	set("exec.rows_out_per_query", float64(st.rows)/nq)
	set("exec.rows_per_batch", ratio(float64(st.counters.Rows), float64(st.counters.Batches)))
	set("exec.arena_hit_ratio", 1-ratio(float64(st.counters.ArenaNews), float64(st.counters.ArenaGets)))
	set("exec.sig_reject_ratio", ratio(float64(st.counters.SigHit), float64(st.counters.SigHit+st.counters.SigMiss)))
	set("exec.allocs_per_run", st.allocsPerRun)
	set("store.fetched_per_query", float64(st.fetched)/nq)
	set("store.scanned_per_query", float64(st.scanned)/nq)
	set("cache.get_ns", probeCacheGet(st.fingerprints))
	set("store.fetch_us", us(probeFetch(ds, noivm.eng.DB())))

	offQ, err := probeQueries(noivm, "noivm", own, probeRounds, rec)
	if err != nil {
		return err
	}
	var cold samples
	for _, p := range offQ {
		if p.round == 0 {
			cold = append(cold, p.ns)
		}
	}
	hits := steady(offQ, probeRounds, nil)
	set("core.execute_us.cold", us(cold.p50()))
	set("core.execute_us.cachehit", us(flat(hits).p50()))
	set("core.overhead_us", us(medianDiff(hits, st.times.ra, st.times.run)))
	set("core.cold_stage_share", ratio(st.sumP50, cold.p50()))
	offW, err := probeWriteOps(noivm, "noivm", in, rec)
	if err != nil {
		return err
	}
	ins, del := probeStoreWrites(noivm.eng.DB(), in)
	set("store.insert_us", us(ins))
	set("store.delete_us", us(del))
	if err := noivm.close(); err != nil {
		return err
	}

	// --- default engine on the script's own queries: views ----------------
	_, eown, err := fresh(kindEngine, cfg)
	if err != nil {
		return err
	}
	onQ, err := probeQueries(eown, "engine-own", own, probeRounds, rec)
	if err != nil {
		return err
	}
	served := steady(onQ, probeRounds, func(p probeSample) bool { return p.res.materialized })
	var admits samples
	for _, p := range onQ {
		if p.admit {
			admits = append(admits, p.ns)
		}
	}
	set("core.execute_us.materialized", us(flat(served).p50()))
	set("ivm.serve_us", us(medianDiff(served, st.times.ra)))
	set("ivm.admit_us", us(admits.p50()-flat(hits).p50()))
	if len(admits) == 0 || len(served) == 0 {
		res.fail("engine probe: %d admissions and %d served queries in %d rounds over %d queries: nothing to time",
			len(admits), len(served), probeRounds, len(own))
	}
	if err := eown.close(); err != nil {
		return err
	}

	// --- default engine on the hot pool: the twin of every transport ------
	_, estd, err := fresh(kindEngine, cfg)
	if err != nil {
		return err
	}
	stdQ, err := probeQueries(estd, "engine", std, probeRounds, rec)
	if err != nil {
		return err
	}
	twin := steady(stdQ, probeRounds, nil)
	v0 := estd.ivmStats()
	onW, err := probeWriteOps(estd, "engine", in, rec)
	if err != nil {
		return err
	}
	set("core.write_us", us(onW.p50()))
	set("ivm.write_tax_us", us(onW.p50()-offW.p50()))
	set("ivm.delta_applies_per_write", float64(estd.ivmStats().DeltaApplies-v0.DeltaApplies)/probeWrites)

	// --- the same engine behind HTTP ---------------------------------------
	if err := estd.listen(); err != nil {
		return err
	}
	if err := probeHTTP(estd, std, in, twin, rec, set); err != nil {
		return err
	}
	if err := estd.close(); err != nil {
		return err
	}

	// --- 4-shard router ------------------------------------------------------
	_, rt, err := fresh(kindSharded, cfg)
	if err != nil {
		return err
	}
	if err := probeRouter(rt, std, script, in, twin, onW, rec, set); err != nil {
		return err
	}
	if err := rt.close(); err != nil {
		return err
	}

	// --- durable engine -------------------------------------------------------
	_, dur, err := fresh(kindDurable, cfg)
	if err != nil {
		return err
	}
	if _, err := probeQueries(dur, "durable", std, probeRounds, rec); err != nil {
		return err
	}
	durW, err := probeWriteOps(dur, "durable", in, rec)
	if err != nil {
		return err
	}
	set("wal.write_tax_us", us(durW.p50()-onW.p50()))
	ws, _ := dur.eng.DurabilityStats()
	set("wal.fsyncs_per_kappend", 1000*ratio(float64(ws.Fsyncs), float64(ws.Appends)))
	set("wal.checkpoints", float64(ws.Checkpoints))
	recoverS, asked, bad, err := reopen(dur, std)
	if err != nil {
		return err
	}
	res.Attempted += int64(asked)
	res.Failed += int64(bad)
	if bad > 0 {
		res.fail("after recovery %d of %d hot-pool answers differ from the oracle's", bad, asked)
	}
	set("wal.recover_s", recoverS)
	if err := dur.close(); err != nil {
		return err
	}

	// --- a scratch log fed the write rows: wal.Log.Append and Sync direct ---
	appendNs, syncNs, bytesPer, err := scratchLog(in, cfg, 16)
	if err != nil {
		return err
	}
	set("wal.append_us", us(appendNs))
	set("wal.sync_us", us(syncNs))
	set("wal.bytes_per_append", bytesPer)
	return nil
}

// probeCacheGet times cache.Cache.Get directly: a scratch plan-cache-sized
// cache loaded with the run's fingerprints, looked up in rounds; the
// median round's time per lookup, in ns.
func probeCacheGet(fps []string) float64 {
	if len(fps) > core.DefaultPlanCacheSize {
		fps = fps[:core.DefaultPlanCacheSize]
	}
	if len(fps) == 0 {
		return 0
	}
	c := cache.New(core.DefaultPlanCacheSize, core.DefaultPlanCacheShards)
	for _, fp := range fps {
		c.Put(fp, fp)
	}
	var rounds samples
	for r := 0; r < 64; r++ {
		t0 := time.Now()
		for _, fp := range fps {
			c.Get(fp)
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(len(fps)))
	}
	return rounds.p50()
}

// probeFetch times store.DB.Fetch directly: for every keyed access
// constraint, the X-projections of up to 64 live rows; the median round's
// time per fetch, in ns.
func probeFetch(ds *workload.Dataset, db *store.DB) float64 {
	type fetch struct {
		c access.Constraint
		x value.Tuple
	}
	var fetches []fetch
	for _, c := range ds.Access.Constraints {
		if len(c.X) == 0 {
			continue
		}
		rel, err := db.Rel(c.Rel)
		if err != nil {
			continue
		}
		pos, err := rel.Positions(c.X)
		if err != nil {
			continue
		}
		rows, _ := db.Rows(c.Rel)
		value.SortTuples(rows)
		if len(rows) > 64 {
			rows = rows[:64]
		}
		for _, t := range rows {
			fetches = append(fetches, fetch{c, t.Project(pos)})
		}
	}
	if len(fetches) == 0 {
		return 0
	}
	var rounds samples
	for r := 0; r < 16; r++ {
		t0 := time.Now()
		for _, f := range fetches {
			_, _ = db.Fetch(f.c, f.x) // the index exists: Gen built one per constraint
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(len(fetches)))
	}
	return rounds.p50()
}

// probeStoreWrites times store.DB.Delete and Insert directly on the write
// pool's rows; the median call, in ns.
func probeStoreWrites(db *store.DB, in *inputs) (ins, del float64) {
	var insS, delS samples
	for i := 0; i < 4*len(in.writes); i++ {
		w := in.writes[i%len(in.writes)]
		t0 := time.Now()
		_, _ = db.Delete(w.rel, w.t) // a miss cannot happen and would show as an outlier only
		t1 := time.Now()
		_, _ = db.Insert(w.rel, w.t)
		t2 := time.Now()
		delS = append(delS, float64(t1.Sub(t0)))
		insS = append(insS, float64(t2.Sub(t1)))
	}
	return insS.p50(), delS.p50()
}

// probeHTTP measures the wire boundary: raw POSTs of the hot pool to the
// server in front of the twin engine, timed to the last byte of the body.
func probeHTTP(svc *service, std []*query, in *inputs, twin map[string]samples,
	rec *recorder, set func(string, float64)) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	trips := map[string]samples{}
	parses := map[string]samples{}
	var decode samples
	var reqBytes, respBytes, n float64
	for r := 0; r < probeRounds; r++ {
		for _, q := range std {
			body, err := json.Marshal(server.QueryRequest{Query: q.text})
			if err != nil {
				return err
			}
			var (
				raw  []byte
				rerr error
			)
			id := rec.time("server.roundtrip", "http", -1, -1, func() {
				resp, err := hc.Post(svc.base+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					rerr = err
					return
				}
				raw, rerr = io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode != http.StatusOK {
					rerr = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				}
			})
			if rerr != nil {
				return fmt.Errorf("http probe %q: %w", q.text, rerr)
			}
			var out server.QueryResponse
			did := rec.time("server.decode", "http", -1, -1, func() { rerr = json.Unmarshal(raw, &out) })
			if rerr != nil {
				return fmt.Errorf("http probe %q: decoding: %w", q.text, rerr)
			}
			if r >= probeRounds/2 {
				trips[q.text] = append(trips[q.text], rec.dur(id))
				decode = append(decode, rec.dur(did))
				reqBytes += float64(len(body))
				respBytes += float64(len(raw))
				n++
			}
		}
	}
	for _, q := range std {
		for i := 0; i < stageRepeats; i++ {
			t0 := time.Now()
			if _, err := svc.eng.Parse(q.text); err != nil {
				return err
			}
			parses[q.text] = append(parses[q.text], float64(time.Since(t0)))
		}
	}
	set("server.roundtrip_us", usOf(flat(trips).p50()))
	set("server.decode_us", usOf(decode.p50()))
	set("server.boundary_us", usOf(medianDiff(trips, twin, parses)))
	set("server.req_bytes_per_query", reqBytes/n)
	set("server.resp_bytes_per_query", respBytes/n)
	w, err := probeWriteOps(svc, "http", in, rec)
	if err != nil {
		return err
	}
	set("server.write_roundtrip_us", usOf(w.p50()))
	return nil
}

// probeRouter measures the shard layer on the hot pool, by route kind,
// against the twin engine's times on the same queries.
func probeRouter(rt *service, std []*query, script []scriptOp, in *inputs, twin map[string]samples,
	twinW samples, rec *recorder, set func(string, float64)) error {
	kinds := []string{"single", "scatter", "residue"}
	// How the script's own queries would route.
	routed := map[string]float64{}
	var nq float64
	for _, so := range script {
		if so.q == nil {
			continue
		}
		k, err := rt.router.RouteKind(so.q.q)
		if err != nil {
			return err
		}
		routed[k]++
		nq++
	}
	for _, k := range kinds {
		set("shard.route_"+k+"_ratio", ratio(routed[k], nq))
	}

	kindOf := map[string]string{}
	for _, q := range std {
		k, err := rt.router.RouteKind(q.q)
		if err != nil {
			return err
		}
		kindOf[q.text] = k
	}
	r0, b0 := rt.router.RouteStats(), rt.router.ResidueStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ps, err := probeQueries(rt, "sharded", std, probeRounds, rec)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r1, b1 := rt.router.RouteStats(), rt.router.ResidueStats()
	set("shard.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(len(ps)))
	set("shard.residue_bytes_per_query", ratio(float64(b1.BytesShipped-b0.BytesShipped), float64(r1.Residue-r0.Residue)))
	for _, k := range kinds {
		mine := steady(ps, probeRounds, func(p probeSample) bool { return kindOf[p.q.text] == k })
		if len(mine) == 0 {
			return fmt.Errorf("no hot-pool query routes as %s: the shapes no longer cover the router's three strategies", k)
		}
		set("shard.execute_us."+k, usOf(flat(mine).p50()))
		set("shard.tax_us."+k, usOf(medianDiff(mine, twin)))
	}
	a0, v0 := rt.router.ApplyQueueStats(), rt.ivmStats()
	w, err := probeWriteOps(rt, "sharded", in, rec)
	if err != nil {
		return err
	}
	// The backlog of the broadcast lanes at the instant the last write
	// returns is the one count here that does not repeat: the lanes drain
	// in the background. Reading the hot pool once more fences every lane
	// a query reads, after which batches and deltas are final.
	depth := rt.router.ApplyQueueStats().Depth
	if _, err := probeQueries(rt, "sharded", std, 1, rec); err != nil {
		return err
	}
	a1, v1 := rt.router.ApplyQueueStats(), rt.ivmStats()
	set("shard.write_us", usOf(w.p50()))
	set("shard.write_tax_us", usOf(w.p50()-twinW.p50()))
	set("shard.apply_enqueued_per_write", float64(a1.Enqueued-a0.Enqueued)/probeWrites)
	set("shard.apply_batch_size", ratio(float64(a1.Enqueued-a0.Enqueued), float64(a1.Batches-a0.Batches)))
	set("shard.apply_depth_end", float64(depth))
	set("shard.ivm_delta_applies_per_write", float64(v1.DeltaApplies-v0.DeltaApplies)/probeWrites)
	return nil
}

// reopen closes the durable engine and recovers its directory over a
// freshly generated database, timing the recovery and re-checking qs.
func reopen(dur *service, qs []*query) (seconds float64, asked, bad int, err error) {
	if err := dur.eng.Close(); err != nil {
		return 0, 0, 0, err
	}
	ds, db, err := generate()
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	eng, err := core.OpenDurable(ds.Schema, ds.Access, db, core.DurableConfig{
		Dir: dur.dir, WAL: wal.Options{Fsync: wal.SyncInterval},
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recovering %s: %w", dur.dir, err)
	}
	seconds = time.Since(t0).Seconds()
	re := &service{kind: kindDurable, svc: eng, eng: eng, stop: eng.Close}
	asked, bad, _ = re.check(&inputs{sample: qs})
	return seconds, asked, bad, re.close()
}

// scratchLog appends the delete and the insert record of every write-pool
// row to a fresh log, rounds times, syncing after each round. It returns
// the median append and sync times in ns and the mean bytes per record.
func scratchLog(in *inputs, cfg config, rounds int) (appendNs, syncNs, bytesPer float64, err error) {
	dir, err := scratchDir(cfg, "wal-scratch")
	if err != nil {
		return 0, 0, 0, err
	}
	log, err := wal.Open(dir, wal.Options{Fsync: wal.SyncOff})
	if err != nil {
		return 0, 0, 0, err
	}
	var appends, syncs samples
	for r := 0; r < rounds && err == nil; r++ {
		for _, w := range in.writes {
			for _, del := range []bool{true, false} {
				t0 := time.Now()
				_, aerr := log.Append(wal.Record{Kind: wal.KindTuple, Op: store.TupleOp{Rel: w.rel, T: w.t, Del: del}})
				appends = append(appends, float64(time.Since(t0)))
				if aerr != nil && err == nil {
					err = aerr
				}
			}
		}
		t0 := time.Now()
		if serr := log.Sync(); serr != nil && err == nil {
			err = serr
		}
		syncs = append(syncs, float64(time.Since(t0)))
	}
	st := log.Stats()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("scratch log: %w", err)
	}
	return appends.p50(), syncs.p50(), ratio(float64(st.SegmentBytes), float64(st.Appends)), nil
}

// setIVM replaces the materialization policy of whichever service this is.
func (s *service) setIVM(cfg ivm.Config) {
	if s.router != nil {
		s.router.SetIVMConfig(cfg)
		return
	}
	s.eng.SetIVMConfig(cfg)
}

// ivmStats reads the materialization counters of whichever service this is.
func (s *service) ivmStats() ivm.Stats {
	if s.router != nil {
		return s.router.IVMStats()
	}
	return s.eng.IVMStats()
}
