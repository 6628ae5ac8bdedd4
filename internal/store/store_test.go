package store

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/ra"
	"repro/internal/value"
)

func testSchema() ra.Schema {
	return ra.Schema{"r": {"a", "b", "c"}}
}

func iv(i int) value.Value { return value.NewInt(int64(i)) }

func TestInsertDeleteBasics(t *testing.T) {
	db := NewDB(testSchema())
	tup := value.Tuple{iv(1), iv(2), iv(3)}
	ok, err := db.Insert("r", tup)
	if err != nil || !ok {
		t.Fatalf("insert: %v %v", ok, err)
	}
	if ok, _ := db.Insert("r", tup); ok {
		t.Error("duplicate insert reported as new")
	}
	if db.Size() != 1 {
		t.Errorf("Size = %d", db.Size())
	}
	if ok, _ := db.Delete("r", tup); !ok {
		t.Error("delete of existing tuple failed")
	}
	if ok, _ := db.Delete("r", tup); ok {
		t.Error("delete of absent tuple reported success")
	}
	if db.Size() != 0 {
		t.Errorf("Size after delete = %d", db.Size())
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDB(testSchema())
	if _, err := db.Insert("zzz", value.Tuple{iv(1)}); err == nil {
		t.Error("insert into unknown relation")
	}
	if _, err := db.Insert("r", value.Tuple{iv(1)}); err == nil {
		t.Error("insert with wrong arity")
	}
}

func TestFetchViaIndex(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 10}
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(1), iv(i), iv(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.BuildIndex(c); err != nil {
		t.Fatal(err)
	}
	got, err := db.Fetch(c, value.Tuple{iv(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("fetched %d tuples, want 5", len(got))
	}
	// Distinctness of XY projections: duplicate (a,b) with different c
	// counts once.
	if _, err := db.Insert("r", value.Tuple{iv(1), iv(0), iv(999)}); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Fetch(c, value.Tuple{iv(1)})
	if len(got) != 5 {
		t.Errorf("fetched %d distinct XY tuples, want 5", len(got))
	}
	// Absent key: empty result, one probe charged.
	before := db.Counter().Fetched
	got, _ = db.Fetch(c, value.Tuple{iv(42)})
	if len(got) != 0 {
		t.Error("fetch of absent key returned tuples")
	}
	if db.Counter().Fetched != before+1 {
		t.Error("absent-key probe not charged")
	}
}

func TestFetchErrors(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 10}
	if _, err := db.Fetch(c, value.Tuple{iv(1)}); err == nil {
		t.Error("fetch without index should fail")
	}
	if _, err := db.BuildIndex(c); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Fetch(c, value.Tuple{iv(1), iv(2)}); err == nil {
		t.Error("fetch with wrong X arity should fail")
	}
}

func TestEmptyXIndex(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: nil, Y: []string{"b"}, N: 100}
	for i := 0; i < 4; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(i), iv(i % 2), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.BuildIndex(c); err != nil {
		t.Fatal(err)
	}
	got, err := db.Fetch(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // distinct b values 0,1
		t.Errorf("∅-fetch returned %d tuples, want 2", len(got))
	}
}

// TestIncrementalMaintenanceMatchesRebuild is the Proposition 12 invariant:
// after any insert/delete sequence, the incrementally maintained index
// equals one built from scratch.
func TestIncrementalMaintenanceMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(testSchema())
		c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b", "c"}, N: 50}
		if _, err := db.BuildIndex(c); err != nil {
			t.Fatal(err)
		}
		var live []value.Tuple
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				tup := value.Tuple{iv(rng.Intn(5)), iv(rng.Intn(5)), iv(rng.Intn(3))}
				ok, err := db.Insert("r", tup)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					live = append(live, tup)
				}
			} else {
				i := rng.Intn(len(live))
				if _, err := db.Delete("r", live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		// Rebuild in a fresh DB and compare fetch results on every key.
		fresh := NewDB(testSchema())
		rows, _ := db.Rows("r")
		if err := fresh.BulkLoad("r", rows); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.BuildIndex(c); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 5; a++ {
			got, _ := db.Fetch(c, value.Tuple{iv(a)})
			want, _ := fresh.Fetch(c, value.Tuple{iv(a)})
			if value.FormatTuples(got) != value.FormatTuples(want) {
				t.Fatalf("seed %d key %d: incremental index diverged:\n%s\nvs\n%s",
					seed, a, value.FormatTuples(got), value.FormatTuples(want))
			}
		}
	}
}

func TestSatisfies(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 2}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(1), iv(i), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Satisfies(c); err == nil {
		t.Error("violated constraint reported satisfied")
	}
	c2 := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	if err := db.Satisfies(c2); err != nil {
		t.Errorf("satisfied constraint rejected: %v", err)
	}
}

func TestMaintainRelaxesN(t *testing.T) {
	db := NewDB(testSchema())
	A := access.NewSchema(access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 1})
	if err := db.BuildIndexes(A); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(1), iv(i), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	adjusted := db.Maintain(A)
	if len(adjusted) != 1 {
		t.Fatalf("Maintain adjusted %d constraints", len(adjusted))
	}
	if A.Constraints[0].N != 4 {
		t.Errorf("N relaxed to %d, want 4", A.Constraints[0].N)
	}
	if err := db.SatisfiesAll(A); err != nil {
		t.Errorf("after Maintain: %v", err)
	}
}

func TestScanCountsAccesses(t *testing.T) {
	db := NewDB(testSchema())
	for i := 0; i < 7; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(i), iv(0), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetCounter()
	if _, err := db.Scan("r"); err != nil {
		t.Fatal(err)
	}
	if got := db.Counter().Scanned; got != 7 {
		t.Errorf("Scanned = %d, want 7", got)
	}
	// Rows does not charge.
	db.ResetCounter()
	if _, err := db.Rows("r"); err != nil {
		t.Fatal(err)
	}
	if db.Counter().Total() != 0 {
		t.Error("Rows charged accesses")
	}
}

func TestIndexEntriesAndCols(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"a", "b"}, N: 10}
	idx, err := db.BuildIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	cols := idx.Cols()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("index cols = %v (X∪Y dedup)", cols)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(i), iv(1), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Entries() != 3 {
		t.Errorf("Entries = %d", idx.Entries())
	}
	if db.IndexEntries() != 3 {
		t.Errorf("IndexEntries = %d", db.IndexEntries())
	}
	if len(db.Indexes()) != 1 {
		t.Error("Indexes() wrong length")
	}
}

func TestMaxFanTracksLargestBucket(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 100}
	idx, _ := db.BuildIndex(c)
	for i := 0; i < 5; i++ {
		db.Insert("r", value.Tuple{iv(1), iv(i), iv(0)}) //nolint:errcheck
	}
	db.Insert("r", value.Tuple{iv(2), iv(0), iv(0)}) //nolint:errcheck
	if idx.MaxFan != 5 {
		t.Errorf("MaxFan = %d, want 5", idx.MaxFan)
	}
}

// TestApplyBatch pins the batched write entry point: ops apply in order
// under one lock round with full incremental index maintenance, a bad op
// reports its error without aborting the applicable suffix, and set
// semantics match Insert/Delete exactly.
func TestApplyBatch(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 100}
	idx, err := db.BuildIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	tup := func(a, b, cc int) value.Tuple { return value.Tuple{iv(a), iv(b), iv(cc)} }
	err = db.ApplyBatch([]TupleOp{
		{Rel: "r", T: tup(1, 10, 0)},            // insert
		{Rel: "r", T: tup(1, 10, 0)},            // duplicate: no-op
		{Rel: "r", T: tup(2, 20, 0)},            // insert
		{Rel: "r", T: tup(1, 10, 0), Del: true}, // delete the first
		{Rel: "zzz", T: tup(0, 0, 0)},           // unknown relation: error
		{Rel: "r", T: tup(3, 30, 0)},            // still applied after the error
		{Rel: "r", T: tup(9, 90, 0), Del: true}, // delete of absent: no-op
	})
	if err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("ApplyBatch error = %v, want the unknown-relation failure", err)
	}
	if db.Size() != 2 {
		t.Fatalf("Size = %d after batch, want 2", db.Size())
	}
	for _, want := range []struct {
		t  value.Tuple
		ok bool
	}{
		{tup(1, 10, 0), false},
		{tup(2, 20, 0), true},
		{tup(3, 30, 0), true},
	} {
		ok, err := db.Has("r", want.t)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want.ok {
			t.Errorf("Has(%v) = %v, want %v", want.t, ok, want.ok)
		}
	}
	// Indices were maintained inside the same critical section.
	if idx.Entries() != 2 {
		t.Errorf("index entries = %d after batch, want 2", idx.Entries())
	}
	rows, err := db.Fetch(c, value.Tuple{iv(2)})
	if err != nil || len(rows) != 1 {
		t.Fatalf("Fetch after batch: rows=%v err=%v", rows, err)
	}
	if err := db.ApplyBatch(nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

// TestApplyBatchReport pins the per-op changed flags the engine's delta
// dispatch filters on: set-semantics no-ops (duplicate inserts, deletes
// of absent tuples) must report false, effective ops true, and failed
// ops false — positionally aligned with the input batch.
func TestApplyBatchReport(t *testing.T) {
	db := NewDB(testSchema())
	tup := func(a, b, cc int) value.Tuple { return value.Tuple{iv(a), iv(b), iv(cc)} }
	changed, err := db.ApplyBatchReport([]TupleOp{
		{Rel: "r", T: tup(1, 10, 0)},            // insert: changed
		{Rel: "r", T: tup(1, 10, 0)},            // duplicate: unchanged
		{Rel: "r", T: tup(1, 10, 0), Del: true}, // delete: changed
		{Rel: "r", T: tup(1, 10, 0), Del: true}, // absent now: unchanged
		{Rel: "zzz", T: tup(0, 0, 0)},           // unknown relation: error, unchanged
		{Rel: "r", T: tup(2, 20, 0)},            // still applied: changed
	})
	if err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("err = %v, want the unknown-relation failure", err)
	}
	want := []bool{true, false, true, false, false, true}
	if len(changed) != len(want) {
		t.Fatalf("len(changed) = %d, want %d", len(changed), len(want))
	}
	for i := range want {
		if changed[i] != want[i] {
			t.Errorf("changed[%d] = %v, want %v", i, changed[i], want[i])
		}
	}
	if db.Size() != 1 {
		t.Fatalf("Size = %d, want 1", db.Size())
	}
}

// TestFetchCounted: the counted fetch hands out each distinct XY projection
// of the bucket with the number of base tuples behind it, follows deletes,
// charges like Fetch and stops when told to.
func TestFetchCounted(t *testing.T) {
	db := NewDB(testSchema())
	c := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 10}
	if _, err := db.BuildIndex(c); err != nil {
		t.Fatal(err)
	}
	// Under a=1: b=0 three times (different c), b=1 once. Under a=2: noise.
	for _, row := range [][3]int{{1, 0, 10}, {1, 0, 11}, {1, 0, 12}, {1, 1, 10}, {2, 0, 10}} {
		if _, err := db.Insert("r", value.Tuple{iv(row[0]), iv(row[1]), iv(row[2])}); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() map[string]int {
		got := map[string]int{}
		n, err := db.FetchCounted(c, value.Tuple{iv(1)}, func(tu value.Tuple, n int) bool {
			got[tu.String()] = n
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(got) {
			t.Fatalf("visited %d entries, saw %d", n, len(got))
		}
		return got
	}
	if got := counts(); len(got) != 2 || got["(1, 0)"] != 3 || got["(1, 1)"] != 1 {
		t.Fatalf("counts = %v, want (1, 0)×3 and (1, 1)×1", got)
	}
	if _, err := db.Delete("r", value.Tuple{iv(1), iv(0), iv(11)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("r", value.Tuple{iv(1), iv(1), iv(10)}); err != nil {
		t.Fatal(err)
	}
	if got := counts(); len(got) != 1 || got["(1, 0)"] != 2 {
		t.Fatalf("counts after deletes = %v, want (1, 0)×2 only", got)
	}

	db.ResetCounter()
	if n, _ := db.FetchCounted(c, value.Tuple{iv(2)}, func(value.Tuple, int) bool { return false }); n != 1 {
		t.Fatalf("a visit that stops at once saw %d entries", n)
	}
	if n, err := db.FetchCounted(c, value.Tuple{iv(42)}, func(value.Tuple, int) bool { return true }); n != 0 || err != nil {
		t.Fatalf("absent key: %d entries, %v", n, err)
	}
	if got := db.Counter().Fetched; got != 2 {
		t.Fatalf("one entry and one absent-key probe charged %d accesses", got)
	}
	if _, err := db.FetchCounted(c, value.Tuple{}, func(value.Tuple, int) bool { return true }); err == nil {
		t.Error("wrong X arity accepted")
	}
	other := access.Constraint{Rel: "r", X: []string{"b"}, Y: []string{"c"}, N: 10}
	if _, err := db.FetchCounted(other, value.Tuple{iv(1)}, func(value.Tuple, int) bool { return true }); err == nil {
		t.Error("fetch without index should fail")
	}
}

// TestScanFunc: the in-place scan visits every tuple once, charges what it
// visited and honours an early stop.
func TestScanFunc(t *testing.T) {
	db := NewDB(testSchema())
	for i := 0; i < 6; i++ {
		if _, err := db.Insert("r", value.Tuple{iv(i), iv(i % 2), iv(0)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	n, err := db.ScanFunc("r", func(tu value.Tuple) bool {
		seen[tu.Key()] = true
		return true
	})
	if err != nil || n != 6 || len(seen) != 6 {
		t.Fatalf("full scan: n=%d distinct=%d err=%v", n, len(seen), err)
	}
	if n, _ := db.ScanFunc("r", func(value.Tuple) bool { return false }); n != 1 {
		t.Fatalf("stopped scan visited %d", n)
	}
	if got := db.Counter().Scanned; got != 7 {
		t.Fatalf("Scanned = %d, want 7", got)
	}
	if _, err := db.ScanFunc("zzz", func(value.Tuple) bool { return true }); err == nil {
		t.Error("scan of unknown relation")
	}
}

// TestCoveringIndex: an index qualifies iff its X is constant-bound and its
// XY holds every needed attribute; the tightest bound wins.
func TestCoveringIndex(t *testing.T) {
	db := NewDB(testSchema())
	for _, c := range []access.Constraint{
		{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 10},
		{Rel: "r", X: []string{"a"}, Y: []string{"b", "c"}, N: 50},
		{Rel: "r", X: []string{"a", "b"}, Y: []string{"c"}, N: 5},
		{Rel: "r", X: nil, Y: []string{"c"}, N: 7},
	} {
		if _, err := db.BuildIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		bound, need []string
		want        string // constraint key, "" for none
	}{
		{[]string{"a"}, []string{"b"}, "r(a->b)"},
		{[]string{"a"}, []string{"a", "b", "c"}, "r(a->b,c)"},
		{[]string{"a", "b"}, []string{"c"}, "r(a,b->c)"},
		{[]string{"b"}, []string{"c"}, "r(->c)"},
		{nil, []string{"c"}, "r(->c)"},
		{nil, []string{"a"}, ""},
		{[]string{"c"}, []string{"a", "c"}, ""},
	} {
		c, ok := db.CoveringIndex("r", tc.bound, tc.need)
		if got := c.Key(); ok != (tc.want != "") || (ok && got != tc.want) {
			t.Errorf("bound %v need %v: got %q (%t), want %q", tc.bound, tc.need, got, ok, tc.want)
		}
	}
	if _, ok := db.CoveringIndex("s", nil, nil); ok {
		t.Error("index found on a relation that has none")
	}
}
