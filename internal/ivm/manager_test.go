package ivm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// mkView materializes a trivial single-relation view the manager tests
// can admit; each call gets its own db so views are independent.
func mkView(t testing.TB) *View {
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
			m.Admit(fmt.Sprintf("k%d", i), mkView(t), nil, 1)
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
// is the view of lowest decayed frequency × cost, the least recently
// served among equals.
func TestManagerEvictionByBenefit(t *testing.T) {
	m := NewManager(Config{Budget: 3, MinHits: 1, MinScore: 0})
	m.Admit("cold", mkView(t), nil, 1)
	m.Admit("warm", mkView(t), nil, 1)
	m.Admit("pricey", mkView(t), nil, 10)
	m.Serve("warm")
	m.Serve("warm")
	m.Serve("pricey")
	// Worth: cold 0×1, warm 2×1, pricey 1×10.
	m.Admit("new", mkView(t), nil, 1)
	if m.Has("cold") {
		t.Fatal("cold should have been evicted first (never read)")
	}
	m.Serve("new")
	m.Serve("new")
	// warm and new are both worth 2×1; warm was served last before new
	// was admitted, so it is the least recently served of the tie.
	m.Admit("cold", mkView(t), nil, 1)
	if m.Has("warm") {
		t.Fatal("warm should have lost the tie to the more recently served new")
	}
	// Frequency × cost, not frequency: pricey was read once, but each read
	// is worth ten of the others'.
	for _, k := range []string{"pricey", "new", "cold"} {
		if !m.Has(k) {
			t.Fatalf("%s should have survived", k)
		}
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
		m.Admit(keys[i], mkView(t), nil, 1)
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
	m.Admit("k", mkView(t), nil, 1)
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
	m.Admit("capped", capped, nil, 1)
	m.Admit("healthy", healthy, nil, 1)
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
	m.Admit("k", mkView(t), nil, 1)
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
	if err := m.Install("ok", v, db, "info", 1); err != nil {
		t.Fatal(err)
	}
	if tbl, info, ok := m.Serve("ok"); !ok || info != "info" || tbl.Len() != 2 {
		t.Fatalf("installed view serves %v, %v, %t", tbl, info, ok)
	}
	small, err := Build(norm, s, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install("big", small, db, nil, 1); !errors.Is(err, ErrViewTooLarge) {
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
		m.Admit(fmt.Sprintf("k%d", i), mkView(t), nil, 1)
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
		if err := m.Install(fmt.Sprint(i), v, db, nil, 1); err != nil {
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

// gateRead is one engine-style read of key: Serve, and on a miss the
// admission check and, when it passes, the admission of v at cost. It
// reports whether the read was served and whether it admitted a view.
func gateRead(m *Manager, key string, cost float64, v *View) (served, admitted bool) {
	if _, _, ok := m.Serve(key); ok {
		return true, false
	}
	if !m.ShouldAdmit(key, 1, cost) {
		return false, false
	}
	m.Admit(key, v, nil, cost)
	return false, true
}

// TestManagerAdmissionGate pins the displacement gate's three behaviours:
// (a) a working set larger than the budget at even heat does not churn,
// (b) a hot set that moves is still admitted within a few reads, and
// (c) a resident that was hot long ago and then went silent decays out
// instead of outranking every newcomer forever.
func TestManagerAdmissionGate(t *testing.T) {
	const budget = 8
	v := mkView(t)
	rng := rand.New(rand.NewSource(11))
	m := NewManager(Config{Budget: budget, MinHits: 1, MinScore: 0})
	period := int(m.freq.period)
	uniform := make([]string, 4*budget)
	for i := range uniform {
		uniform[i] = fmt.Sprintf("u%d", i)
	}
	// The fill: free slots admit on the plain formula, and the gate then
	// settles which of the equally hot keys hold them.
	for i := 0; i < 2*period; i++ {
		gateRead(m, uniform[rng.Intn(len(uniform))], 1, v)
	}
	if m.Len() != budget {
		t.Fatalf("%d views live after the fill, want %d", m.Len(), budget)
	}
	// (a) Even heat: 0 admissions in 20 000 reads, every one a refusal the
	// operator can see.
	before := m.Stats()
	for i := 0; i < 20000; i++ {
		gateRead(m, uniform[rng.Intn(len(uniform))], 1, v)
	}
	st := m.Stats()
	if n := st.Admitted - before.Admitted; n != 0 {
		t.Fatalf("uniform reads over %d equal-cost keys churned %d admissions", len(uniform), n)
	}
	if st.Rejected == before.Rejected {
		t.Fatal("the gate never refused a candidate")
	}
	// (b) The hot set moves to 4 new keys: they displace the old residents
	// and serve nearly every read.
	hot := []string{"h0", "h1", "h2", "h3"}
	served := 0
	for i := 0; i < 5000; i++ {
		if ok, _ := gateRead(m, hot[rng.Intn(len(hot))], 1, v); ok {
			served++
		}
	}
	if served < 4500 {
		t.Fatalf("the new hot set served %d of 5000 reads, want >= 4500", served)
	}
	// (c) Hot once, then silent for eight halving periods.
	m = NewManager(Config{Budget: budget, MinHits: 1, MinScore: 0})
	for i := 0; i < period; i++ {
		gateRead(m, "old", 1, v)
	}
	others := uniform[:2*budget]
	for i := 0; i < 8*period; i++ {
		gateRead(m, others[rng.Intn(len(others))], 1, v)
	}
	if m.Has("old") {
		t.Fatal("a resident silent for eight halving periods still holds its view")
	}
}

// TestManagerSketch is the frequency sketch's property: within one halving
// period no estimate falls below the key's true count, and a halving —
// explicit, or the one the period's last add triggers — halves every
// counter.
func TestManagerSketch(t *testing.T) {
	s := newSketch(8)
	rng := rand.New(rand.NewSource(3))
	// More keys than counters per row, Zipf-skewed: cells are shared.
	keys := make([]string, 4*s.width)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	truth := map[string]uint32{}
	for i := int64(1); i < s.period; i++ {
		k := keys[zipf.Uint64()]
		s.add(sketchHash(k))
		truth[k]++
	}
	for k, n := range truth {
		if est := s.estimate(sketchHash(k)); est < n {
			t.Fatalf("key %s: estimate %d below its true count %d", k, est, n)
		}
	}
	before := make([]uint32, len(s.cells))
	for i := range s.cells {
		before[i] = s.cells[i].Load()
	}
	s.halve()
	for i := range s.cells {
		if got := s.cells[i].Load(); got != before[i]/2 {
			t.Fatalf("cell %d: %d after halving %d", i, got, before[i])
		}
	}
	fresh := newSketch(8)
	h := sketchHash("k")
	for i := int64(1); i < fresh.period; i++ {
		fresh.add(h)
	}
	if est := fresh.estimate(h); est != uint32(fresh.period-1) {
		t.Fatalf("a lone key read %d times estimates %d", fresh.period-1, est)
	}
	fresh.add(h)
	if est := fresh.estimate(h); est != uint32(fresh.period/2) {
		t.Fatalf("the period's last add left %d, want the halved %d", est, fresh.period/2)
	}
}

// fullManager returns a manager holding a full budget of 64 views — one
// view shared by 64 keys of costs 1..64, each read once — and their keys,
// shaped like an engine's view keys (option prefix + 64 hex digits).
func fullManager(tb testing.TB) (*Manager, []string) {
	m := NewManager(Config{Budget: 64, MinHits: 1, MinScore: 0})
	v := mkView(tb)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("mtrue|rtrue|%064x", i)
		m.Admit(keys[i], v, nil, float64(i+1))
		m.Serve(keys[i])
	}
	return m, keys
}

// TestManagerHotPathAllocs pins what the gate adds to every read: Serve,
// hit or miss, and ShouldAdmit against a full budget of 64 (the victim
// scan included) allocate nothing.
func TestManagerHotPathAllocs(t *testing.T) {
	m, keys := fullManager(t)
	for name, read := range map[string]func(){
		"Serve hit":  func() { m.Serve(keys[7]) },
		"Serve miss": func() { m.Serve("absent") },
		"ShouldAdmit": func() {
			if m.ShouldAdmit("unread", 10, 1) {
				t.Fatal("a candidate never read displaced a resident")
			}
		},
	} {
		if a := testing.AllocsPerRun(100, read); a != 0 {
			t.Fatalf("%s allocates %.0f times", name, a)
		}
	}
}

// BenchmarkManagerServe prices the read path with 64 live views (run with
// -benchmem): "hit" serves a view and "miss" finds none — both count the
// read in the frequency sketch — and "admit" is the full-budget admission
// check a plan-cache hit runs after a miss, victim scan included.
func BenchmarkManagerServe(b *testing.B) {
	m, keys := fullManager(b)
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			m.Serve(keys[i%len(keys)])
			i++
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			m.Serve("absent")
		}
	})
	b.Run("admit", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			m.ShouldAdmit("unread", 10, 1)
		}
	})
}

// TestManagerDenyOverflow: a full negative cache still records a new
// denial, dropping an old one to make room, instead of silently forgetting
// it (and rebuilding that view under the write fence on every repeat).
func TestManagerDenyOverflow(t *testing.T) {
	m := NewManager(Config{Budget: 4, MinHits: 1, MinScore: 0})
	for i := 0; i < maxDenied; i++ {
		m.Deny(fmt.Sprint(i))
	}
	m.Deny("x")
	if !m.Denied("x") {
		t.Fatal("a denial into a full cache was not recorded")
	}
	if len(m.deny) > maxDenied {
		t.Fatalf("the denial cache grew to %d past its bound %d", len(m.deny), maxDenied)
	}
	m.Deny("x")
	if len(m.deny) != maxDenied {
		t.Fatalf("re-denying a recorded key dropped another: %d entries", len(m.deny))
	}
}

// TestManagerGateStorm runs Serve, ShouldAdmit, Install and PurgeAll from
// several goroutines at once with a budget of 4, so the sketch halves every
// 512 reads and does so many times: the budget is never exceeded, and no
// view installed before a PurgeAll returned is served after it. Installs
// and purges are ordered by an RWMutex like the engine's own lock (installs
// shared, purges exclusive); each view's info is the count of purges
// completed when it was installed.
func TestManagerGateStorm(t *testing.T) {
	const budget, readers, reads = 4, 4, 3000
	s := ra.Schema{"r": {"a", "b"}}
	db := store.NewDB(s)
	for i := int64(0); i < 8; i++ {
		if _, err := db.Insert("r", value.Tuple{value.NewInt(i), value.NewInt(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	norm, err := ra.Normalize(ra.Proj(ra.Sel(ra.R("r", "r1"), ra.EqC(ra.A("r1", "b"), value.NewInt(1))), ra.A("r1", "a")), s)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3*budget)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	m := NewManager(Config{Budget: budget, MinHits: 1, MinScore: 0})
	var (
		fence sync.RWMutex
		purge atomic.Int64
		wg    sync.WaitGroup
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
			for i := 0; i < reads; i++ {
				// The hot set shifts every 500 reads, so admissions and
				// evictions keep happening.
				k := (int(zipf.Uint64()) + i/500) % len(keys)
				seen := purge.Load()
				if _, info, ok := m.Serve(keys[k]); ok {
					if info.(int64) < seen {
						t.Errorf("%s: a view installed before purge %d was served after it", keys[k], seen)
						return
					}
					continue
				}
				cost := float64(1 + k%5)
				if !m.ShouldAdmit(keys[k], 1, cost) {
					continue
				}
				v, err := Build(norm, s, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				fence.RLock()
				err = m.Install(keys[k], v, db, purge.Load(), cost)
				fence.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				if n := m.Len(); n > budget {
					t.Errorf("%d views live, budget %d", n, budget)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			fence.Lock()
			m.PurgeAll()
			purge.Add(1)
			fence.Unlock()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if halvings := m.freq.adds.Load() / m.freq.period; halvings < 10 {
		t.Fatalf("the sketch halved %d times, want a storm spanning many halvings", halvings)
	}
	if st := m.Stats(); st.Admitted == 0 || st.Rejected == 0 || st.Purged == 0 {
		t.Fatalf("the storm did not exercise admission, the gate and purges: %+v", st)
	}
}
