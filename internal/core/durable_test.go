package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workload"
)

// durableTestConfig is a low-churn config for tests: fsync off (the page
// cache survives in-process "crashes"), tiny segments so rolling and
// pruning are exercised.
func durableTestConfig(dir string) DurableConfig {
	cfg := DurableConfig{Dir: dir, CheckpointEvery: -1}
	cfg.WAL.SegmentBytes = 16 << 10
	return cfg
}

// sampleRows returns up to n rows of rel for write-storm material.
func sampleRows(t *testing.T, db *store.DB, rel string, n int) []value.Tuple {
	t.Helper()
	rows, err := db.Rows(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < n {
		n = len(rows)
	}
	out := make([]value.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = rows[i].Clone()
	}
	return out
}

// assertSameAnswers runs every template of d on both engines and requires
// identical tables.
func assertSameAnswers(t *testing.T, d *workload.Dataset, got, want *Engine) {
	t.Helper()
	opts := DefaultOptions()
	for _, tpl := range d.Templates() {
		q, err := want.Parse(tpl.Src)
		if err != nil {
			t.Fatal(err)
		}
		wt, _, err := want.Execute(q, opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tpl.Name, err)
		}
		gt, _, err := got.Execute(q, opts)
		if err != nil {
			t.Fatalf("%s: recovered: %v", tpl.Name, err)
		}
		if !gt.Equal(wt) {
			t.Errorf("%s: recovered answer differs from oracle", tpl.Name)
		}
	}
}

// assertSameStore requires got and want to hold the same tuples in every
// relation of schema.
func assertSameStore(t *testing.T, schema ra.Schema, got, want *store.DB) {
	t.Helper()
	for rel := range schema {
		if g, w := storeKeys(t, got, rel), storeKeys(t, want, rel); !slices.Equal(g, w) {
			t.Fatalf("relation %s: %d tuples, want %d, or the tuples differ", rel, len(g), len(w))
		}
	}
}

func storeKeys(t *testing.T, db *store.DB, rel string) []string {
	t.Helper()
	rows, err := db.Rows(rel)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	slices.Sort(keys)
	return keys
}

// TestApplyBatchInvalidOpFailsAloneInBothModes: an invalid op in the
// middle of a batch fails alone on an in-memory and on a durable engine
// alike — the ops around it are applied, the durable engine logs exactly
// those, and recovery rebuilds the same store.
func TestApplyBatchInvalidOpFailsAloneInBothModes(t *testing.T) {
	d := workload.Airca()
	dir := t.TempDir()
	var engs []*Engine
	for _, durable := range []bool{false, true} {
		db, err := d.Gen(0.01, 3)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(d.Schema, d.Access, db)
		if durable {
			eng, err = OpenDurable(d.Schema, d.Access, db, durableTestConfig(dir))
		}
		if err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	mem, dur := engs[0], engs[1]
	rows := sampleRows(t, mem.DB(), "ontime", 2)
	batch := []store.TupleOp{
		{Rel: "ontime", T: rows[0], Del: true},
		{Rel: "ontime", T: rows[0][:2]}, // wrong arity
		{Rel: "ontime", T: rows[1], Del: true},
	}
	for _, eng := range engs {
		if err := eng.ApplyBatch(batch); err == nil || !strings.Contains(err.Error(), "expects") {
			t.Fatalf("ApplyBatch error = %v, want the arity failure", err)
		}
	}
	assertSameStore(t, d.Schema, dur.DB(), mem.DB())
	rec, err := OpenDurable(d.Schema, nil, nil, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	assertSameStore(t, d.Schema, rec.DB(), mem.DB())
}

func TestDurableEngineRecoversWritesAndConstraints(t *testing.T) {
	d := workload.Airca()
	dir := t.TempDir()
	db, err := d.Gen(0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDurable(d.Schema, d.Access, db, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: an in-memory engine over an identical seed, receiving the
	// same mutations.
	odb, err := d.Gen(0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(d.Schema, d.Access, odb)
	if err != nil {
		t.Fatal(err)
	}

	rows := sampleRows(t, db, "ontime", 60)
	for i, r := range rows {
		if i%3 == 0 {
			if _, err := eng.Delete("ontime", r); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.Delete("ontime", r); err != nil {
				t.Fatal(err)
			}
		} else if i%3 == 1 {
			// Delete and re-insert: recovery must preserve op order.
			for _, e2 := range []*Engine{eng, oracle} {
				if _, err := e2.Delete("ontime", r); err != nil {
					t.Fatal(err)
				}
				if _, err := e2.Insert("ontime", r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A batch through the durable batch path.
	batch := []store.TupleOp{
		{Rel: "ontime", T: rows[0], Del: false},
		{Rel: "ontime", T: rows[3], Del: false},
		{Rel: "ontime", T: rows[6], Del: true},
	}
	if err := eng.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Constraint churn: add a fresh constraint, remove an existing one.
	extra := access.Constraint{Rel: "ontime", X: []string{"airline"}, Y: []string{"origin"}, N: 150}
	drop := access.Constraint{Rel: "plane", X: nil, Y: []string{"model"}, N: 30}
	if err := eng.AddConstraints(extra); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AddConstraints(extra); err != nil {
		t.Fatal(err)
	}
	if !eng.RemoveConstraint(drop) || !oracle.RemoveConstraint(drop) {
		t.Fatal("constraint to remove was not installed")
	}
	if err := eng.Health(); err != nil {
		t.Fatalf("durable engine degraded: %v", err)
	}
	// Abrupt stop: no Close, no checkpoint since boot.

	rec, err := OpenDurable(d.Schema, nil, nil, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DBSize() != oracle.DBSize() {
		t.Fatalf("recovered |D| = %d, oracle %d", rec.DBSize(), oracle.DBSize())
	}
	wantCons := oracle.AccessSnapshot()
	gotCons := rec.AccessSnapshot()
	wantKeys := map[string]bool{}
	for _, c := range wantCons.Constraints {
		wantKeys[c.Key()] = true
	}
	if len(gotCons.Constraints) != len(wantCons.Constraints) {
		t.Fatalf("recovered ‖A‖ = %d, oracle %d", len(gotCons.Constraints), len(wantCons.Constraints))
	}
	for _, c := range gotCons.Constraints {
		if !wantKeys[c.Key()] {
			t.Errorf("recovered unexpected constraint %v", c)
		}
	}
	if rec.IndexEntries() != oracle.IndexEntries() {
		t.Errorf("recovered |I_A| = %d, oracle %d", rec.IndexEntries(), oracle.IndexEntries())
	}
	assertSameAnswers(t, d, rec, oracle)
}

func TestDurableEngineInitialCheckpointMakesSeedDurable(t *testing.T) {
	d := workload.Airca()
	dir := t.TempDir()
	db, err := d.Gen(0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	seedSize := db.Size()
	eng, err := OpenDurable(d.Schema, d.Access, db, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := eng.DurabilityStats(); !ok || st.Checkpoints != 1 {
		t.Fatalf("expected one boot checkpoint, stats %+v ok=%v", st, ok)
	}
	// Crash with zero writes: recovery must still find the seed.
	rec, err := OpenDurable(d.Schema, nil, nil, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DBSize() != seedSize {
		t.Fatalf("recovered |D| = %d, want seed %d", rec.DBSize(), seedSize)
	}
}

func TestDurableEngineAutoCheckpoint(t *testing.T) {
	d := workload.Airca()
	dir := t.TempDir()
	db, err := d.Gen(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableTestConfig(dir)
	cfg.CheckpointEvery = 40
	eng, err := OpenDurable(d.Schema, d.Access, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleRows(t, eng.DB(), "ontime", 100)
	for _, r := range rows {
		if _, err := eng.Delete("ontime", r); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Insert("ontime", r); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint runs on a background goroutine; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := eng.DurabilityStats()
		if st.Checkpoints >= 2 { // boot checkpoint + at least one automatic
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 200 writes (cadence 40): %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(d.Schema, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DBSize() != db.Size() {
		t.Fatalf("recovered |D| = %d, want %d", rec.DBSize(), db.Size())
	}
}

func TestDurableEngineExplicitCheckpointBoundsReplay(t *testing.T) {
	d := workload.Airca()
	dir := t.TempDir()
	db, err := d.Gen(0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDurable(d.Schema, d.Access, db, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleRows(t, eng.DB(), "ontime", 30)
	for _, r := range rows {
		if _, err := eng.Delete("ontime", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.DurabilityStats()
	if st.CheckpointLSN != st.LastLSN {
		t.Fatalf("checkpoint LSN %d, last %d", st.CheckpointLSN, st.LastLSN)
	}
	for _, r := range rows {
		if _, err := eng.Insert("ontime", r); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: crash with a checkpoint mid-history.
	rec, err := OpenDurable(d.Schema, nil, nil, durableTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DBSize() != db.Size() {
		t.Fatalf("recovered |D| = %d, want %d", rec.DBSize(), db.Size())
	}
}
