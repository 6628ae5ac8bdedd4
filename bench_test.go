// Benchmarks regenerating the paper's evaluation (Section 8). Each figure
// and table has a target here; `cmd/benchfig` prints the full series, while
// these testing.B wrappers integrate with `go test -bench`.
//
//	Fig. 6        -> BenchmarkFig6_CoveredRatio
//	Fig. 5(a,e,i) -> BenchmarkFig5_VaryD_{AIRCA,TFACC,MCBM}
//	Fig. 5(b,f,j) -> BenchmarkFig5_VarySel_{AIRCA,TFACC,MCBM}
//	Fig. 5(c,g,k) -> BenchmarkFig5_VaryJoin_{AIRCA,TFACC,MCBM}
//	Fig. 5(d,h,l) -> BenchmarkFig5_VaryA_{AIRCA,TFACC,MCBM}
//	Exp-1(IV)     -> BenchmarkIndexBuild
//	Exp-2         -> BenchmarkExp2_{ChkCov,QPlan,MinA,MinADAG} (per-call latency)
//	evalQP/evalDBMS per-query -> BenchmarkEvalQP / BenchmarkEvalDBMS
package bounded_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	bounded "repro"

	"repro/internal/bench"
	"repro/internal/cover"
	"repro/internal/exec"
	"repro/internal/minimize"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchCfg keeps full-figure regeneration affordable under `go test -bench`.
func benchCfg() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.FullScale = 0.25
	cfg.QueryPool = 40
	cfg.EvalQueries = 3
	return cfg
}

func BenchmarkFig6_CoveredRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(io.Discard, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVaryD(b *testing.B, d *workload.Dataset) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5VaryD(io.Discard, d, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_VaryD_AIRCA(b *testing.B) { benchVaryD(b, workload.Airca()) }
func BenchmarkFig5_VaryD_TFACC(b *testing.B) { benchVaryD(b, workload.Tfacc()) }
func BenchmarkFig5_VaryD_MCBM(b *testing.B)  { benchVaryD(b, workload.Mcbm()) }

func benchVarySel(b *testing.B, d *workload.Dataset) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5VarySel(io.Discard, d, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_VarySel_AIRCA(b *testing.B) { benchVarySel(b, workload.Airca()) }
func BenchmarkFig5_VarySel_TFACC(b *testing.B) { benchVarySel(b, workload.Tfacc()) }
func BenchmarkFig5_VarySel_MCBM(b *testing.B)  { benchVarySel(b, workload.Mcbm()) }

func benchVaryJoin(b *testing.B, d *workload.Dataset) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5VaryJoin(io.Discard, d, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_VaryJoin_AIRCA(b *testing.B) { benchVaryJoin(b, workload.Airca()) }
func BenchmarkFig5_VaryJoin_TFACC(b *testing.B) { benchVaryJoin(b, workload.Tfacc()) }
func BenchmarkFig5_VaryJoin_MCBM(b *testing.B)  { benchVaryJoin(b, workload.Mcbm()) }

func benchVaryA(b *testing.B, d *workload.Dataset) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5VaryA(io.Discard, d, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_VaryA_AIRCA(b *testing.B) { benchVaryA(b, workload.Airca()) }
func BenchmarkFig5_VaryA_TFACC(b *testing.B) { benchVaryA(b, workload.Tfacc()) }
func BenchmarkFig5_VaryA_MCBM(b *testing.B)  { benchVaryA(b, workload.Mcbm()) }

// BenchmarkIndexBuild is Exp-1(IV): time to generate data and build all
// indices I_A.
func BenchmarkIndexBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.IndexStats(io.Discard, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Exp-2: per-call analysis latency (paper: ≤ 199 ms in all cases) ------

// exp2Fixture prepares a representative covered query on AIRCA.
func exp2Fixture(b *testing.B) (*workload.Dataset, *cover.Result) {
	b.Helper()
	d := workload.Airca()
	rng := rand.New(rand.NewSource(2016))
	params := workload.DefaultQueryParams()
	params.Sel = 6
	params.Join = 3
	params.UniDiff = 2
	for tries := 0; tries < 200; tries++ {
		q, err := d.RandomQuery(params, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cover.Check(q, d.Schema, d.Access)
		if err != nil {
			b.Fatal(err)
		}
		if res.Covered {
			return d, res
		}
	}
	b.Fatal("no covered query found")
	return nil, nil
}

func BenchmarkExp2_ChkCov(b *testing.B) {
	d, res := exp2Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cover.Check(res.Query, d.Schema, d.Access); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExp2_QPlan(b *testing.B) {
	_, res := exp2Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Build(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExp2_MinA(b *testing.B) {
	_, res := exp2Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minimize.MinA(res, minimize.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExp2_MinADAG(b *testing.B) {
	_, res := exp2Fixture(b)
	if !minimize.IsAcyclic(res) {
		b.Skip("fixture instance is cyclic")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minimize.MinADAG(res); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-query evaluation latency on Example 1 ----------------------------

func facebookFixture(b *testing.B) (ra.Query, ra.Schema, *plan.Plan, *store.DB) {
	b.Helper()
	cfg := workload.DefaultFacebookConfig()
	cfg.Persons = 2000
	cfg.Cafes = 500
	fb, db, err := workload.GenFacebook(cfg)
	if err != nil {
		b.Fatal(err)
	}
	norm, err := ra.Normalize(fb.Q0Prime(), fb.Schema)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cover.Check(norm, fb.Schema, fb.Access)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(res)
	if err != nil {
		b.Fatal(err)
	}
	return norm, fb.Schema, p, db
}

// BenchmarkEvalQP measures bounded evaluation of the Example 1 query.
func BenchmarkEvalQP(b *testing.B) {
	_, _, p, db := facebookFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Run(p, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalDBMS measures the conventional evaluator on the same query
// and data; the ns/op gap is the paper's headline comparison.
func BenchmarkEvalDBMS(b *testing.B) {
	q, s, _, db := facebookFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.RunBaseline(q, s, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (design choices called out in DESIGN.md) -------------------

// BenchmarkMaintenance_Incremental measures Proposition 12: per-update
// index maintenance cost, which must not depend on |D|.
func BenchmarkMaintenance_Incremental(b *testing.B) {
	cfg := workload.DefaultFacebookConfig()
	cfg.Persons = 5000
	fb, db, err := workload.GenFacebook(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_ = fb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := bounded.Tuple{bounded.Int(int64(i % 5000)), bounded.Int(int64(1000000 + i))}
		if _, err := db.Insert("friend", tup); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Delete("friend", tup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintenance_Rebuild is the ablation baseline: rebuilding the
// friend index from scratch after each update instead of maintaining it.
func BenchmarkMaintenance_Rebuild(b *testing.B) {
	cfg := workload.DefaultFacebookConfig()
	cfg.Persons = 5000
	fb, db, err := workload.GenFacebook(cfg)
	if err != nil {
		b.Fatal(err)
	}
	friendCon := fb.Access.Constraints[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.BuildIndex(friendCon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PlanMemoization quantifies step sharing: plan length
// with memoized unit fetching plans (the default) must stay well below the
// naive per-attribute bound |XQ|·|A|.
func BenchmarkAblation_PlanMemoization(b *testing.B) {
	_, res := exp2Fixture(b)
	b.ResetTimer()
	var length int
	for i := 0; i < b.N; i++ {
		p, err := plan.Build(res)
		if err != nil {
			b.Fatal(err)
		}
		length = p.Length()
	}
	b.ReportMetric(float64(length), "plan-steps")
}

// --- serving layer --------------------------------------------------------

// BenchmarkServe replays the full concurrent serving benchmark: N client
// goroutines draw a Zipf-skewed mix of repeated workload queries against a
// database that writer goroutines mutate underneath, exercising the plan
// cache and bounded incremental index maintenance together. The reported
// extra metrics are the plan-cache hit rate and the cold-compile /
// cache-hit speedup.
func BenchmarkServe(b *testing.B) {
	cfg := bench.DefaultServeConfig()
	var last *bench.ServeResult
	for i := 0; i < b.N; i++ {
		res, err := bench.Serve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d serving errors", res.Errors)
		}
		last = res
	}
	b.ReportMetric(last.QPS, "queries/s")
	b.ReportMetric(100*last.HitRate, "hit-%")
	b.ReportMetric(last.Speedup, "cold/hot-x")
}

// BenchmarkExecuteCold and BenchmarkExecuteCached isolate the tentpole
// claim: a repeated query through the plan cache skips the whole analysis
// pipeline (CovChk, rewriting, minA, QPlan) and goes straight to evalQP.
func benchExecuteEngine(b *testing.B) (*bounded.Engine, bounded.Query) {
	cfg := workload.DefaultFacebookConfig()
	// Serving-sized population: the cache's win is the skipped analysis
	// pipeline, so the benchmark keeps execution from drowning compile.
	cfg.Persons = 300
	fb, db, err := workload.GenFacebook(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := bounded.NewEngine(fb.Schema, fb.Access, db)
	if err != nil {
		b.Fatal(err)
	}
	return eng, fb.Q1()
}

func BenchmarkExecuteCold(b *testing.B) {
	eng, q := benchExecuteEngine(b)
	opts := bounded.DefaultOptions()
	opts.Cache = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteCached(b *testing.B) {
	eng, q := benchExecuteEngine(b)
	opts := bounded.DefaultOptions()
	if _, _, err := eng.Execute(q, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdExecute prices the cold compile the engine-adhoc workload
// pays on every read: AIRCA at scale 0.05, the ad-hoc shapes (a single
// atom, a delaycause join, an airport join, a UNION and an EXCEPT) in
// turn, each op with constants no earlier op used, so every Execute runs
// CovChk, minA and QPlan before its plan.
func BenchmarkColdExecute(b *testing.B) {
	d := workload.Airca()
	db, err := d.Gen(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := bounded.NewEngine(d.Schema, d.Access, db)
	if err != nil {
		b.Fatal(err)
	}
	flights, err := db.Rows("ontime")
	if err != nil {
		b.Fatal(err)
	}
	causes, err := db.Rows("delaycause")
	if err != nil {
		b.Fatal(err)
	}
	shapes := []string{
		`q(origin, dest, airline, month, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`,
		`q(origin, dest, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`,
		`q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`,
		`(q(dest) :- ontime(%[1]d, o, dest, al, m, dl)) UNION (q(dest) :- ontime(%[2]d, o2, dest, al2, m2, dl2))`,
		`(q(o, d) :- ontime(%[1]d, o, d, al, m, dl)) EXCEPT (q(o, d) :- ontime(%[2]d, o, d, al2, m2, dl2))`,
	}
	// Distinct constants for every op: the k-th use of a shape takes the
	// k-th flight (and its successor, or its delaycause row). When the ops
	// outnumber the distinct queries, the plan cache is purged before the
	// queries repeat, so every op still compiles cold.
	n := min(len(flights)-1, len(causes))
	qs := make([]bounded.Query, 0, n*len(shapes))
	for k := 0; k < n; k++ {
		for si, text := range shapes {
			a, c := flights[k][0].I, flights[k+1][0].I
			if si == 1 {
				a, c = causes[k][0].I, causes[k][1].I
			}
			q, err := eng.Parse(fmt.Sprintf(text, a, c))
			if err != nil {
				b.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	opts := bounded.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(qs) == 0 {
			b.StopTimer()
			eng.InvalidatePlans()
			b.StartTimer()
		}
		if _, rep, err := eng.Execute(qs[i%len(qs)], opts); err != nil || rep.CacheHit {
			b.Fatalf("op %d: err %v, cache hit %v", i, err, rep != nil && rep.CacheHit)
		}
	}
}
