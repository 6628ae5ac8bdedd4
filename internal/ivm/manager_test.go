package ivm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// mkView materializes a trivial single-relation view the manager tests
// can admit; each call gets its own db so views are independent.
func mkView(t *testing.T) *View {
	t.Helper()
	s := ra.Schema{"r": {"a"}}
	db := store.NewDB(s)
	if _, err := db.Insert("r", value.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	norm, err := ra.Normalize(ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")), s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Materialize(norm, s, db, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestManagerBudgetNeverExceeded is the budget property: whatever the
// admission order, the live-view count never passes the configured
// budget — checked after every admission across a randomized run.
func TestManagerBudgetNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, budget := range []int{1, 3, 8} {
		m := NewManager(Config{Budget: budget, MinHits: 1, MinScore: 0, MaxViewRows: 0})
		for i := 0; i < 4*budget; i++ {
			m.Admit(fmt.Sprintf("k%d", i), mkView(t), nil)
			// Random serves shuffle the benefit ordering between admissions.
			for j := 0; j < rng.Intn(4); j++ {
				m.Serve(fmt.Sprintf("k%d", rng.Intn(i+1)))
			}
			if got := m.Len(); got > budget {
				t.Fatalf("budget %d: %d live views after %d admissions", budget, got, i+1)
			}
		}
		st := m.Stats()
		if st.Materialized != budget {
			t.Fatalf("budget %d: final live = %d", budget, st.Materialized)
		}
		if st.Admitted != int64(4*budget) || st.Evicted != int64(3*budget) {
			t.Fatalf("budget %d: admitted %d evicted %d", budget, st.Admitted, st.Evicted)
		}
	}
}

// TestManagerEvictionByBenefit is the eviction-order property: the victim
// is always the least-served view, least recently served on ties.
func TestManagerEvictionByBenefit(t *testing.T) {
	m := NewManager(Config{Budget: 3, MinHits: 1, MinScore: 0})
	for _, k := range []string{"cold", "warm", "hot"} {
		m.Admit(k, mkView(t), nil)
	}
	m.Serve("hot")
	m.Serve("hot")
	m.Serve("warm")
	m.Admit("new", mkView(t), nil) // evicts "cold": zero serves
	if m.Has("cold") {
		t.Fatal("cold should have been evicted first (fewest serves)")
	}
	for _, k := range []string{"warm", "hot", "new"} {
		if !m.Has(k) {
			t.Fatalf("%s should have survived", k)
		}
	}
	// new and a re-admitted cold both have zero serves; cold's admission
	// is more recent, so new (older last-use) is the tie-break victim.
	m.Admit("cold", mkView(t), nil) // evicts new: zero serves, oldest
	if m.Has("new") {
		t.Fatal("new should have lost the zero-serve tie (least recently used)")
	}
	if !m.Has("cold") {
		t.Fatal("cold should be live again")
	}
}

// TestManagerPurgeAll is the purge property: after PurgeAll not a single
// view (or denial) survives, whatever was admitted before.
func TestManagerPurgeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewManager(Config{Budget: 16, MinHits: 1, MinScore: 0})
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		m.Admit(keys[i], mkView(t), nil)
		if rng.Intn(2) == 0 {
			m.Serve(keys[i])
		}
	}
	m.Deny("rejected")
	m.PurgeAll()
	if got := m.Len(); got != 0 {
		t.Fatalf("%d views live after PurgeAll", got)
	}
	for _, k := range keys {
		if m.Has(k) {
			t.Fatalf("%s survived PurgeAll", k)
		}
		if _, _, ok := m.Serve(k); ok {
			t.Fatalf("%s still serves after PurgeAll", k)
		}
	}
	if m.Denied("rejected") {
		t.Fatal("denial cache survived PurgeAll")
	}
	if st := m.Stats(); st.Purged != int64(len(keys)) {
		t.Fatalf("Purged = %d, want %d", st.Purged, len(keys))
	}
}

// TestManagerAdmission pins the admission formula: repeats and score must
// both pass, denials and live views block re-admission, and a disabled
// config admits nothing.
func TestManagerAdmission(t *testing.T) {
	m := NewManager(Config{Budget: 4, MinHits: 3, MinScore: 30})
	if m.ShouldAdmit("k", 2, 1000) {
		t.Fatal("admitted below MinHits")
	}
	if m.ShouldAdmit("k", 5, 1) {
		t.Fatal("admitted below MinScore")
	}
	if !m.ShouldAdmit("k", 3, 10) {
		t.Fatal("3 hits × cost 10 = 30 should admit")
	}
	m.Admit("k", mkView(t), nil)
	if m.ShouldAdmit("k", 100, 100) {
		t.Fatal("re-admitted a live key")
	}
	m.Deny("bad")
	if m.ShouldAdmit("bad", 100, 100) {
		t.Fatal("admitted a denied key")
	}
	off := NewManager(Config{})
	if off.ShouldAdmit("k", 1000, 1000) {
		t.Fatal("disabled config admitted")
	}
}

// TestManagerFallbackDropsView: an inapplicable delta (row cap hit on
// Apply) must drop exactly the failing view and count a fallback; healthy
// views keep serving.
func TestManagerFallbackDropsView(t *testing.T) {
	s := ra.Schema{"r": {"a"}}
	db := store.NewDB(s)
	norm, err := ra.Normalize(ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")), s)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Materialize(norm, s, db, nil, 1) // cap 1: second row kills it
	if err != nil {
		t.Fatal(err)
	}
	healthy := mkView(t)
	m := NewManager(Config{Budget: 4, MinHits: 1, MinScore: 0})
	m.Admit("capped", capped, nil)
	m.Admit("healthy", healthy, nil)
	ops := []store.TupleOp{
		{Rel: "r", T: value.Tuple{value.NewInt(1)}},
		{Rel: "r", T: value.Tuple{value.NewInt(2)}},
	}
	for _, op := range ops {
		if _, err := db.Insert(op.Rel, op.T); err != nil {
			t.Fatal(err)
		}
	}
	m.OnWrite(ops)
	if m.Has("capped") {
		t.Fatal("over-cap view should have been dropped")
	}
	if !m.Has("healthy") {
		t.Fatal("healthy view should survive a sibling's fallback")
	}
	if st := m.Stats(); st.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", st.Fallbacks)
	}
}

// TestManagerTracks pins the write-path pre-check: only relations some
// live view reads are tracked, and eviction/purge untracks them.
func TestManagerTracks(t *testing.T) {
	m := NewManager(Config{Budget: 4, MinHits: 1, MinScore: 0})
	if m.Tracks("r") {
		t.Fatal("empty manager tracks r")
	}
	m.Admit("k", mkView(t), nil)
	if !m.Tracks("r") {
		t.Fatal("admitted view over r not tracked")
	}
	if m.Tracks("s") {
		t.Fatal("tracking a relation no view reads")
	}
	m.PurgeAll()
	if m.Tracks("r") {
		t.Fatal("still tracking after purge")
	}
}

// TestManagerInstall covers the fenced half of a materialization: Install
// seeds and admits a built view, accounts the tuples it read and the time
// it took, and turns a view too large to seed into a denial.
func TestManagerInstall(t *testing.T) {
	s := ra.Schema{"r": {"a", "b"}}
	db := store.NewDB(s)
	for i := int64(0); i < 5; i++ {
		if _, err := db.Insert("r", value.Tuple{value.NewInt(i), value.NewInt(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	norm, err := ra.Normalize(ra.Proj(ra.R("r", "r1"), ra.A("r1", "b")), s)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Budget: 4, MinHits: 1, MinScore: 0})
	v, err := Build(norm, s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install("ok", v, db, "info"); err != nil {
		t.Fatal(err)
	}
	if tbl, info, ok := m.Serve("ok"); !ok || info != "info" || tbl.Len() != 2 {
		t.Fatalf("installed view serves %v, %v, %t", tbl, info, ok)
	}
	small, err := Build(norm, s, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install("big", small, db, nil); !errors.Is(err, ErrViewTooLarge) {
		t.Fatalf("Install over the row cap = %v, want ErrViewTooLarge", err)
	}
	if m.Has("big") || !m.Denied("big") {
		t.Fatal("a failed seeding must be denied, not admitted")
	}
	st := m.Stats()
	// The first seeding scanned all 5 rows; the second stopped at the cap.
	if st.Admitted != 1 || st.Denied != 1 || st.SeedFetched != 0 || st.SeedScanned < 5 || st.BuildNanos <= 0 {
		t.Fatalf("stats after one install and one denial: %+v", st)
	}
	sum := st.Merge(st)
	if sum.SeedScanned != 2*st.SeedScanned || sum.SeedFetched != 2*st.SeedFetched || sum.BuildNanos != 2*st.BuildNanos {
		t.Fatalf("Merge dropped a seeding counter: %+v", sum)
	}
}

// TestManagerWriteRoute checks the copy-on-write route OnWrite reads: it
// follows admission, eviction and fallback, and looking it up for a write
// allocates nothing.
func TestManagerWriteRoute(t *testing.T) {
	m := NewManager(Config{Budget: 2, MinHits: 1, MinScore: 0})
	for i := 0; i < 5; i++ { // three of the five are evicted again
		m.Admit(fmt.Sprintf("k%d", i), mkView(t), nil)
	}
	if got := len((*m.byRel.Load())["r"]); got != 2 {
		t.Fatalf("route for r lists %d views, want the 2 live ones", got)
	}
	before := m.Stats().DeltaApplies
	m.OnWrite([]store.TupleOp{{Rel: "r", T: value.Tuple{value.NewInt(7)}}})
	if got := m.Stats().DeltaApplies - before; got != 2 {
		t.Fatalf("one write reached %d views, want 2", got)
	}
	untracked := []store.TupleOp{{Rel: "s", T: value.Tuple{value.NewInt(7)}}}
	if a := testing.AllocsPerRun(100, func() {
		if m.Tracks("s") {
			t.Fatal("s is tracked")
		}
		m.OnWrite(untracked)
	}); a != 0 {
		t.Fatalf("routing a write no view reads allocates %.0f times", a)
	}
}

// BenchmarkManagerOnWrite prices the write path's dispatch (run with
// -benchmem): "untracked" is a write no view depends on — the route lookup
// alone, which must not allocate — and "tracked" a write that 64 live views
// each fold in, where every allocation left belongs to the delta rules.
func BenchmarkManagerOnWrite(b *testing.B) {
	s := ra.Schema{"r": {"a", "b"}, "s": {"a"}}
	db := store.NewDB(s)
	m := NewManager(Config{Budget: 64, MinHits: 1, MinScore: 0})
	for i := 0; i < 64; i++ {
		q := ra.Proj(ra.Sel(ra.R("r", "r1"), ra.EqC(ra.A("r1", "b"), value.NewInt(int64(i)))), ra.A("r1", "a"))
		norm, err := ra.Normalize(q, s)
		if err != nil {
			b.Fatal(err)
		}
		v, err := Build(norm, s, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Install(fmt.Sprint(i), v, db, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		ops  []store.TupleOp
	}{
		{"untracked", []store.TupleOp{{Rel: "s", T: value.Tuple{value.NewInt(1)}}}},
		// Insert then delete, so the views end every iteration unchanged.
		{"tracked", []store.TupleOp{
			{Rel: "r", T: value.Tuple{value.NewInt(1), value.NewInt(3)}},
			{Rel: "r", T: value.Tuple{value.NewInt(1), value.NewInt(3)}, Del: true},
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m.OnWrite(bc.ops)
			}
		})
	}
}
