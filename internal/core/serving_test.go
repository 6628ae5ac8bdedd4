package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/value"
)

func TestPlanCacheHit(t *testing.T) {
	eng, fb := engine(t)
	t1, rep1, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}
	t2, rep2, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if !rep2.Bounded || rep2.Plan == nil {
		t.Error("cached execution lost the bounded plan")
	}
	if rep2.CheckTime != 0 || rep2.PlanTime != 0 || rep2.MinimizeTime != 0 {
		t.Error("cache hit should skip analysis entirely")
	}
	if !t1.Equal(t2) {
		t.Error("cached and uncached answers differ")
	}
	st := eng.CacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Errorf("cache stats not tracking: %+v", st)
	}
}

// The uncovered verdict is cached too: the second fallback execution skips
// CovChk and the rewriter.
func TestPlanCacheCachesFallback(t *testing.T) {
	eng, fb := engine(t)
	opts := DefaultOptions()
	opts.Rewrite = false
	if _, rep, err := eng.Execute(fb.Q2(), opts); err != nil || rep.CacheHit {
		t.Fatalf("first: %v %+v", err, rep)
	}
	table, rep, err := eng.Execute(fb.Q2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || rep.Covered || rep.Bounded {
		t.Errorf("cached fallback misreported: %+v", rep)
	}
	want, _, err := eng.ExecuteBaseline(fb.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("cached fallback answer differs from baseline")
	}
	// The cached verdict still honours FallbackToBaseline=false.
	opts.FallbackToBaseline = false
	if _, _, err := eng.Execute(fb.Q2(), opts); err == nil {
		t.Error("cached uncovered verdict must still error without fallback")
	}
}

// Queries that differ only in variable naming and atom order share one
// cache entry via the canonical fingerprint.
func TestPlanCacheNormalizedKey(t *testing.T) {
	eng, fb := engine(t)
	if _, _, err := eng.Execute(fb.Q1(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Re-parse Q1 from text: different occurrence names, different atom
	// order than the hand-built tree.
	q, err := eng.Parse("q(cid) :- cafe(cid, 'nyc'), dine(f, cid, 5, 2015), friend(0, f)")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("reordered/renamed variant of Q1 should hit the same entry")
	}
}

func TestPlanCacheKeyedByOptions(t *testing.T) {
	eng, fb := engine(t)
	opts := DefaultOptions()
	if _, _, err := eng.Execute(fb.Q1(), opts); err != nil {
		t.Fatal(err)
	}
	opts.Minimize = false
	_, rep, err := eng.Execute(fb.Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Error("different Minimize setting must not share a cache entry")
	}
	if rep.Minimized != nil {
		t.Error("minimization ran despite being disabled")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	eng, fb := engine(t)
	eng.SetPlanCacheCapacity(0)
	for i := 0; i < 2; i++ {
		_, rep, err := eng.Execute(fb.Q1(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit {
			t.Fatal("disabled cache served a hit")
		}
	}
	opts := DefaultOptions()
	opts.Cache = false
	eng.SetPlanCacheCapacity(64)
	if _, _, err := eng.Execute(fb.Q1(), opts); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits+st.Misses != 0 {
		t.Error("opts.Cache=false still touched the cache")
	}
}

// Tuple inserts and deletes keep cached plans valid (Proposition 12): the
// cached bounded plan must see the new data, matching the baseline.
func TestInsertDeleteKeepCachedPlansValid(t *testing.T) {
	eng, fb := engine(t)
	if _, rep, err := eng.Execute(fb.Q1(), DefaultOptions()); err != nil || !rep.Bounded {
		t.Fatalf("warmup: %v %+v", err, rep)
	}
	v0 := eng.Version()

	// A fresh cafe in nyc where a friend of person 0 dined in May 2015:
	// this adds a row to Q1's answer through the friend→dine→cafe chain.
	friends, err := eng.DB().Fetch(access.Constraint{Rel: "friend", X: []string{"pid"}, Y: []string{"fid"}, N: 5000}, value.Tuple{fb.Me})
	if err != nil || len(friends) == 0 {
		t.Fatalf("no friends of p0: %v", err)
	}
	fid := friends[0][1]
	newCafe := value.Tuple{value.NewInt(999_999), value.NewStr("nyc")}
	newDine := value.Tuple{fid, value.NewInt(999_999), value.NewInt(5), value.NewInt(2015)}
	if _, err := eng.Insert("cafe", newCafe); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("dine", newDine); err != nil {
		t.Fatal(err)
	}

	table, rep, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("tuple writes must not invalidate the plan cache")
	}
	if eng.Version() != v0 {
		t.Error("tuple writes must not bump the engine version")
	}
	if !table.Has(value.Tuple{value.NewInt(999_999)}) {
		t.Error("cached plan did not see the inserted tuples")
	}
	want, _, err := eng.ExecuteBaseline(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("cached plan diverged from baseline after insert")
	}

	if _, err := eng.Delete("dine", newDine); err != nil {
		t.Fatal(err)
	}
	table, rep, err = eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || table.Has(value.Tuple{value.NewInt(999_999)}) {
		t.Error("cached plan did not see the deletion")
	}
}

// Removing a constraint drops its index; the cache must never serve a plan
// compiled against it (it would fetch a dropped index).
func TestCacheNeverServesPlanAcrossIndexDrop(t *testing.T) {
	eng, fb := engine(t)
	if _, rep, err := eng.Execute(fb.Q1(), DefaultOptions()); err != nil || !rep.Bounded {
		t.Fatalf("warmup: %v %+v", err, rep)
	}
	v0 := eng.Version()

	// ψ4 cafe(cid → city, 1) is essential to Q1's plan.
	psi4 := access.Constraint{Rel: "cafe", X: []string{"cid"}, Y: []string{"city"}, N: 1}
	if !eng.RemoveConstraint(psi4) {
		t.Fatal("ψ4 not found")
	}
	if eng.Version() == v0 {
		t.Error("constraint removal must bump the engine version")
	}

	table, rep, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatalf("execution after index drop failed: %v (stale plan served?)", err)
	}
	if rep.CacheHit {
		t.Error("cache served an entry across an index drop")
	}
	if rep.Bounded && rep.Stats.Scanned == 0 && !rep.Rewritten {
		// If still bounded it must be via a genuinely recompiled plan; a
		// stale plan would have errored on the missing index above.
		t.Log("query recompiled to a bounded plan without ψ4")
	}
	want, _, err := eng.ExecuteBaseline(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("answer wrong after constraint removal")
	}

	// Re-adding recompiles back to the bounded path.
	if err := eng.AddConstraints(psi4); err != nil {
		t.Fatal(err)
	}
	_, rep, err = eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Error("cache survived AddConstraints")
	}
	if !rep.Bounded {
		t.Error("bounded path not restored after re-adding ψ4")
	}
}

// TestConcurrentServing exercises the full serving regime under -race:
// readers execute cached and uncached queries while writers churn tuples
// and a third group flips the access schema. The churned tuples are
// disjoint from the answers of the probed queries, so every execution must
// return the quiesced answer, bounded or fallback alike.
func TestConcurrentServing(t *testing.T) {
	eng, fb := engine(t)
	wantQ1, _, err := eng.ExecuteBaseline(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	wantQ0, _, err := eng.ExecuteBaseline(fb.Q0())
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers      = 6
		writers      = 2
		schemaFlips  = 40
		readsPerGoro = 30
	)
	var (
		bounded  sync.WaitGroup // readers + schema mutator (bounded loops)
		writerWG sync.WaitGroup // writers (run until stop)
		stop     atomic.Bool
	)
	errs := make(chan error, readers*readsPerGoro+8)

	// Readers: alternate cached and uncached execution.
	for g := 0; g < readers; g++ {
		bounded.Add(1)
		go func(g int) {
			defer bounded.Done()
			for i := 0; i < readsPerGoro; i++ {
				opts := DefaultOptions()
				opts.Cache = i%2 == 0
				q, want := fb.Q1(), wantQ1
				if i%5 == 0 {
					q, want = fb.Q0(), wantQ0
				}
				table, _, err := eng.Execute(q, opts)
				if err != nil {
					errs <- err
					return
				}
				if !table.Equal(want) {
					errs <- errDiff
					return
				}
			}
		}(g)
	}

	// Writers: insert and delete tuples that never satisfy the probed
	// queries' selections (person 900000+ and month 1/2020), so answers
	// stay fixed while every index on friend and dine churns.
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; !stop.Load(); i++ {
				p := value.NewInt(int64(900_000 + g*10_000 + i%50))
				dine := value.Tuple{p, value.NewInt(int64(i % 7)), value.NewInt(1), value.NewInt(2020)}
				friend := value.Tuple{p, value.NewInt(int64(i % 11))}
				if _, err := eng.Insert("dine", dine); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Insert("friend", friend); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Delete("dine", dine); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Delete("friend", friend); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// Schema mutator: flip an auxiliary constraint that Q1's coverage does
	// not depend on, forcing cache invalidation storms mid-traffic.
	bounded.Add(1)
	go func() {
		defer bounded.Done()
		aux := access.Constraint{Rel: "dine", X: []string{"pid"}, Y: []string{"cid"}, N: 1000}
		for i := 0; i < schemaFlips; i++ {
			if err := eng.AddConstraints(aux); err != nil {
				errs <- err
				return
			}
			if !eng.RemoveConstraint(aux) {
				errs <- errString("aux constraint vanished")
				return
			}
		}
	}()

	bounded.Wait()
	stop.Store(true)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: cached and uncached paths agree with the baseline.
	for _, opts := range []Options{DefaultOptions(), {Minimize: true, Rewrite: true, FallbackToBaseline: true}} {
		table, _, err := eng.Execute(fb.Q1(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !table.Equal(wantQ1) {
			t.Fatal("post-churn answer differs from baseline")
		}
	}
}
