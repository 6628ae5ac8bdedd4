package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workload"
)

// aggressiveIVM admits every plan-cache hit, so tests reach the
// materialized path deterministically without replay loops.
func aggressiveIVM() ivm.Config {
	return ivm.Config{Budget: 16, MinHits: 1, MinScore: 0, MaxViewRows: 1 << 18}
}

// ivmTestEngine builds a small hand-rolled engine: r(a,b) with a few
// rows, no access constraints (queries fall back to baseline execution,
// which exercises the same cache + materialization path).
func ivmTestEngine(t *testing.T) *Engine {
	t.Helper()
	schema := ra.Schema{"r": {"a", "b"}}
	db := store.NewDB(schema)
	for _, row := range [][2]int64{{1, 1}, {2, 1}, {3, 2}} {
		if _, err := db.Insert("r", value.Tuple{value.NewInt(row[0]), value.NewInt(row[1])}); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(schema, access.NewSchema(), db)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetIVMConfig(aggressiveIVM())
	return eng
}

func itup(vals ...int64) value.Tuple {
	t := make(value.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.NewInt(v)
	}
	return t
}

// TestIVMFastPath drives one query hot and asserts the serving ladder:
// compile miss → plan-cache hit (which admits) → materialized serve, with
// identical answers at every rung.
func TestIVMFastPath(t *testing.T) {
	eng := ivmTestEngine(t)
	q, err := eng.Parse(`q(a) :- r(a, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.ExecuteBaseline(q)
	if err != nil {
		t.Fatal(err)
	}
	// Rung 1: cold compile.
	t1, rep1, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHit || rep1.Materialized {
		t.Fatalf("cold execute reported cacheHit=%v materialized=%v", rep1.CacheHit, rep1.Materialized)
	}
	// Rung 2: plan-cache hit; the aggressive config admits right after.
	t2, rep2, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit || rep2.Materialized {
		t.Fatalf("second execute reported cacheHit=%v materialized=%v", rep2.CacheHit, rep2.Materialized)
	}
	// Rung 3: materialized serve.
	t3, rep3, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Materialized || !rep3.CacheHit {
		t.Fatalf("third execute reported cacheHit=%v materialized=%v, want a materialized hit",
			rep3.CacheHit, rep3.Materialized)
	}
	for i, got := range []interface{ Len() int }{t1, t2, t3} {
		if got.(interface{ Len() int }).Len() != want.Len() {
			t.Fatalf("rung %d: %d rows, want %d", i+1, got.Len(), want.Len())
		}
	}
	if !t3.Equal(want) {
		t.Fatalf("materialized answer differs from baseline:\ngot %s\nwant %s", t3.String(), want.String())
	}
	st := eng.IVMStats()
	if st.Admitted < 1 || st.Hits < 1 || st.Materialized < 1 {
		t.Fatalf("stats after the ladder: %+v", st)
	}
}

// TestIVMBoundedAdmission: an engine admitting a covered fan-out over a
// real access schema seeds the view through the covering index — at most N
// tuples read, none scanned — and reports how long the fence was held.
func TestIVMBoundedAdmission(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(d.Schema, d.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetIVMConfig(aggressiveIVM())
	q, err := eng.Parse(`q(airline) :- ontime(f, 42, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	var last *Report
	for i := 0; i < 3; i++ {
		if _, last, err = eng.Execute(q, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if !last.Materialized {
		t.Fatal("the hot query was never materialized")
	}
	st := eng.IVMStats()
	// ontime(origin → airline, 28) covers the only leaf.
	if st.SeedFetched < 1 || st.SeedFetched > 28 || st.SeedScanned != 0 || st.BuildNanos <= 0 {
		t.Fatalf("admission was not bounded by the access schema: %+v", st)
	}
}

// TestIVMReadYourWrites: writes through the engine must be visible in the
// very next materialized serve — the delta path, not a purge, keeps the
// answer current.
func TestIVMReadYourWrites(t *testing.T) {
	eng := ivmTestEngine(t)
	q, err := eng.Parse(`q(a) :- r(a, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		op       store.TupleOp
		wantRows int
	}{
		{store.TupleOp{Rel: "r", T: itup(9, 1)}, 3},             // joins the answer
		{store.TupleOp{Rel: "r", T: itup(1, 1), Del: true}, 2},  // leaves it
		{store.TupleOp{Rel: "r", T: itup(50, 7)}, 2},            // irrelevant b
		{store.TupleOp{Rel: "r", T: itup(50, 7), Del: true}, 2}, // and gone again
	}
	for i, stp := range steps {
		var err error
		if stp.op.Del {
			_, err = eng.Delete(stp.op.Rel, stp.op.T)
		} else {
			_, err = eng.Insert(stp.op.Rel, stp.op.T)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, rep, err := eng.Execute(q, DefaultOptions())
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !rep.Materialized {
			t.Fatalf("step %d: lost the materialization (fallbacks=%d)", i, eng.IVMStats().Fallbacks)
		}
		if got.Len() != stp.wantRows {
			t.Fatalf("step %d: %d rows after write, want %d", i, got.Len(), stp.wantRows)
		}
		want, _, err := eng.ExecuteBaseline(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("step %d: materialized answer diverged from baseline", i)
		}
	}
	if st := eng.IVMStats(); st.DeltaApplies < 2 {
		t.Fatalf("DeltaApplies = %d, want >= 2 (two answer-changing writes)", st.DeltaApplies)
	}
}

// TestIVMBatchWrites drives the ApplyBatch path: batched deltas must land
// in the view exactly like single writes, with no-op batch members
// filtered out.
func TestIVMBatchWrites(t *testing.T) {
	eng := ivmTestEngine(t)
	q, err := eng.Parse(`q(a) :- r(a, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	batch := []store.TupleOp{
		{Rel: "r", T: itup(10, 1)},            // answer gains 10
		{Rel: "r", T: itup(10, 1)},            // duplicate: must NOT double-count
		{Rel: "r", T: itup(2, 1), Del: true},  // answer loses 2
		{Rel: "r", T: itup(99, 9), Del: true}, // missing: no-op
	}
	if err := eng.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	got, rep, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Materialized {
		t.Fatal("batch write dropped the view")
	}
	want, _, err := eng.ExecuteBaseline(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("after batch: view %s, baseline %s", got.String(), want.String())
	}
	// Now delete the tuple the duplicate insert touched: if the duplicate
	// had been double-counted, the row would (wrongly) survive.
	if _, err := eng.Delete("r", itup(10, 1)); err != nil {
		t.Fatal(err)
	}
	got, _, err = eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got.Tuples() {
		if row[0].I == 10 {
			t.Fatal("tuple survived its delete: duplicate batch insert was double-counted")
		}
	}
}

// TestIVMVersionBumpPurges is the purge property: ANY access-schema
// generation bump — adding a constraint, removing one, InvalidatePlans,
// SyncVersion — must leave zero live materializations, checked over a
// randomized sequence of bump kinds.
func TestIVMVersionBumpPurges(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(d.Schema, d.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetIVMConfig(aggressiveIVM())
	tpl := d.Templates()
	rng := rand.New(rand.NewSource(9))
	heat := func() {
		for i := 0; i < 3; i++ {
			q, err := eng.Parse(tpl[rng.Intn(len(tpl))].Src)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cs := d.Access.Constraints
	bumps := []struct {
		name string
		do   func()
	}{
		{"remove+add constraint", func() {
			c := cs[rng.Intn(len(cs))]
			if !eng.RemoveConstraint(c) {
				t.Fatal("constraint not removed")
			}
			if err := eng.AddConstraints(c); err != nil {
				t.Fatal(err)
			}
		}},
		{"invalidate plans", func() { eng.InvalidatePlans() }},
		{"sync version", func() { eng.SyncVersion(eng.Version() + 1) }},
	}
	for round := 0; round < 6; round++ {
		heat()
		if eng.IVMStats().Materialized == 0 {
			t.Fatalf("round %d: heating admitted nothing", round)
		}
		b := bumps[rng.Intn(len(bumps))]
		before := eng.IVMStats().Purged
		b.do()
		st := eng.IVMStats()
		if st.Materialized != 0 {
			t.Fatalf("round %d: %d views survived %q", round, st.Materialized, b.name)
		}
		if st.Purged <= before {
			t.Fatalf("round %d: %q did not count purges", round, b.name)
		}
	}
}

// TestIVMDisabled: a Budget<=0 config must stop all materialization and
// serve every query through the plan path.
func TestIVMDisabled(t *testing.T) {
	eng := ivmTestEngine(t)
	eng.SetIVMConfig(ivm.Config{})
	q, err := eng.Parse(`q(a) :- r(a, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, rep, err := eng.Execute(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Materialized {
			t.Fatal("materialized serve from a disabled engine")
		}
	}
	if st := eng.IVMStats(); st != (ivm.Stats{}) {
		t.Fatalf("disabled engine reported non-zero stats: %+v", st)
	}
	if _, err := eng.Insert("r", itup(7, 7)); err != nil {
		t.Fatal(err)
	}
}

// TestIVMDeltaOracle is the delta-oracle wall at engine level: workload
// templates run hot on an IVM-forced engine while random write storms
// mutate the instance; after every batch, each template's answer must
// equal a fresh execution on an IVM-disabled oracle engine over an
// identically mutated copy.
func TestIVMDeltaOracle(t *testing.T) {
	for _, d := range workload.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			db, err := d.Gen(0.02, 5)
			if err != nil {
				t.Fatal(err)
			}
			oracleDB, err := d.Gen(0.02, 5)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(d.Schema, d.Access, db)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetIVMConfig(aggressiveIVM())
			oracle, err := NewEngine(d.Schema, d.Access, oracleDB)
			if err != nil {
				t.Fatal(err)
			}
			oracle.SetIVMConfig(ivm.Config{})

			var queries []ra.Query
			for _, tpl := range d.Templates() {
				q, err := eng.Parse(tpl.Src)
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, q)
			}
			// Heat: three passes make every template a materialization
			// candidate under the aggressive config.
			for pass := 0; pass < 3; pass++ {
				for _, q := range queries {
					if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
						t.Fatal(err)
					}
				}
			}

			rng := rand.New(rand.NewSource(13))
			var rels []string
			samples := map[string][]value.Tuple{}
			for rel := range d.Schema {
				rows, err := db.Rows(rel)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) > 0 {
					rels = append(rels, rel)
					if len(rows) > 50 {
						rows = rows[:50]
					}
					samples[rel] = rows
				}
			}
			for batchNo := 0; batchNo < 8; batchNo++ {
				var batch []store.TupleOp
				for i := 0; i < 10; i++ {
					rel := rels[rng.Intn(len(rels))]
					rows := samples[rel]
					batch = append(batch, store.TupleOp{
						Rel: rel,
						T:   rows[rng.Intn(len(rows))],
						Del: rng.Intn(2) == 0,
					})
				}
				if err := eng.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := oracle.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					got, _, err := eng.Execute(q, DefaultOptions())
					if err != nil {
						t.Fatalf("batch %d template %d: %v", batchNo, qi, err)
					}
					want, _, err := oracle.Execute(q, DefaultOptions())
					if err != nil {
						t.Fatalf("batch %d template %d oracle: %v", batchNo, qi, err)
					}
					if !got.Equal(want) {
						t.Fatalf("batch %d: template %d diverged from the oracle\nivm:    %s\noracle: %s",
							batchNo, qi, got.String(), want.String())
					}
				}
			}
			st := eng.IVMStats()
			if st.Admitted == 0 || st.DeltaApplies == 0 {
				t.Fatalf("the storm never exercised maintenance: %+v", st)
			}
		})
	}
}

// TestIVMConcurrentStorm hammers one IVM-enabled engine with concurrent
// hot readers, writers and config flips under -race: the invariant is no
// race, no error, and every served answer row-consistent with SOME
// quiescent state (checked at the end against a final baseline).
func TestIVMConcurrentStorm(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(d.Schema, d.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetIVMConfig(aggressiveIVM())
	tpls := d.Templates()
	queries := make([]ra.Query, 0, len(tpls))
	for _, tpl := range tpls {
		q, err := eng.Parse(tpl.Src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	var rels []string
	samples := map[string][]value.Tuple{}
	for rel := range d.Schema {
		rows, err := db.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 0 {
			rels = append(rels, rel)
			samples[rel] = rows
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Readers: hot template loops.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 150; i++ {
				q := queries[rng.Intn(len(queries))]
				if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	// Writers: delete+reinsert churn (quiescently a no-op) plus batches.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 150; i++ {
				rel := rels[rng.Intn(len(rels))]
				rows := samples[rel]
				tu := rows[rng.Intn(len(rows))]
				if i%5 == 0 {
					ops := []store.TupleOp{
						{Rel: rel, T: tu, Del: true},
						{Rel: rel, T: tu},
					}
					if err := eng.ApplyBatch(ops); err != nil {
						errCh <- fmt.Errorf("writer %d: %w", g, err)
						return
					}
					continue
				}
				if _, err := eng.Delete(rel, tu); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
				if _, err := eng.Insert(rel, tu); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	// Config flipper: disables and re-enables maintenance mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			eng.SetIVMConfig(ivm.Config{})
			eng.SetIVMConfig(aggressiveIVM())
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Quiescent check: every template answer must now equal its baseline
	// (the churn was net-zero), whether served materialized or not.
	for qi, q := range queries {
		got, _, err := eng.Execute(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.ExecuteBaseline(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("template %d: post-storm answer diverged from baseline", qi)
		}
	}
}
