package shard

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

// freshOntime fabricates an ontime tuple with a distinct flight id and
// origin i, outside the generated id range.
func freshOntime(i int64) value.Tuple {
	return value.Tuple{value.NewInt(700000 + i), value.NewInt(i), value.NewInt(12),
		value.NewInt(7), value.NewInt(1), value.NewInt(30)}
}

// freshCarrier fabricates a carrier tuple (a broadcast relation in AIRCA)
// with a distinct airline id outside the generated range.
func freshCarrier(i int64) value.Tuple {
	return value.Tuple{value.NewInt(9000 + i), value.NewInt(900), value.NewInt(1)}
}

// freshPlane fabricates a plane tuple (another broadcast relation) with a
// distinct tailnum outside the generated range.
func freshPlane(i int64) value.Tuple {
	return value.Tuple{value.NewInt(90000 + i), value.NewInt(1), value.NewInt(5), value.NewInt(2001)}
}

// TestApplyBatching is the acceptance check for the broadcast write path:
// with the applier paused, N broadcast writes commit synchronously on the
// anchor but accumulate their non-anchor copies as queue backlog, and
// draining them costs exactly ONE batched application per target engine —
// one write-lock acquisition — instead of N.
func TestApplyBatching(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	router.aq.paused.Store(true)
	s0 := router.ApplyQueueStats()
	const n = 200
	for i := int64(0); i < n; i++ {
		if _, err := router.Insert("carrier", freshCarrier(i)); err != nil {
			t.Fatal(err)
		}
	}
	mid := router.ApplyQueueStats()
	if mid.Depth != n || mid.Enqueued != s0.Enqueued+n {
		t.Fatalf("after %d paused writes: depth %d, enqueued %d (want %d backlogged)",
			n, mid.Depth, mid.Enqueued, n)
	}
	if mid.Batches != s0.Batches {
		t.Fatalf("paused applier still ran %d batches", mid.Batches-s0.Batches)
	}
	members := router.state.Load().members
	// The anchor committed synchronously despite the backlog; the other
	// member has not seen the last write yet.
	for i := int64(0); i < n; i++ {
		if ok, _ := members[0].eng.DB().Has("carrier", freshCarrier(i)); !ok {
			t.Fatalf("write %d not on the anchor while the lane lagged", i)
		}
	}
	if ok, _ := members[1].eng.DB().Has("carrier", freshCarrier(n-1)); ok {
		t.Fatal("non-anchor member applied synchronously; expected a queued copy")
	}
	router.aq.paused.Store(false)
	router.aq.fenceAll()
	s1 := router.ApplyQueueStats()
	if s1.Depth != 0 || s1.Applied != s1.Enqueued {
		t.Fatalf("fence left backlog: %+v", s1)
	}
	if got := s1.Batches - s0.Batches; got != 1 {
		t.Errorf("draining %d queued writes took %d lock acquisitions, want 1 (O(batches), not O(writes))", n, got)
	}
	if s1.MaxBatch < n {
		t.Errorf("MaxBatch = %d, want >= %d", s1.MaxBatch, n)
	}
	if s1.Errors != 0 {
		t.Errorf("apply queue recorded %d store errors", s1.Errors)
	}
	for i := int64(0); i < n; i++ {
		if ok, _ := members[1].eng.DB().Has("carrier", freshCarrier(i)); !ok {
			t.Fatalf("non-anchor member missing write %d after drain", i)
		}
	}
}

// TestFenceReadYourWrites pins the per-relation watermark fence on the
// read path: an acknowledged broadcast write not yet applied to the
// non-anchor members is still observed by any query that reads the
// relation, because Execute fences the relation's lane first.
func TestFenceReadYourWrites(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	size0 := router.DBSize()
	router.aq.paused.Store(true)
	tup := freshCarrier(1)
	if _, err := router.Insert("carrier", tup); err != nil {
		t.Fatal(err)
	}
	members := router.state.Load().members
	if ok, _ := members[1].eng.DB().Has("carrier", tup); ok {
		t.Fatal("non-anchor member applied synchronously; expected a queued copy")
	}
	if got := router.DBSize(); got != size0+1 {
		t.Fatalf("DBSize = %d after acknowledged write, want %d", got, size0+1)
	}
	// Any read of the relation fences its lane — wherever it routes.
	q, err := router.Parse(`q(cname) :- carrier(9001, cname, country)`)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 1 {
		t.Fatalf("read-your-writes: query over the written tuple returned %d rows, want 1", table.Len())
	}
	if s := router.ApplyQueueStats(); s.Depth != 0 {
		t.Errorf("carrier read left a backlog of %d (fence must drain the lane)", s.Depth)
	}
	if ok, _ := members[1].eng.DB().Has("carrier", tup); !ok {
		t.Fatal("read fence did not drain the lane")
	}

	// Same for deletes: a fenced read must not see the deleted tuple on
	// any member.
	if _, err := router.Delete("carrier", tup); err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := members[1].eng.DB().Has("carrier", tup); ok {
		t.Error("fenced member still holds a deleted tuple")
	}
	router.aq.paused.Store(false)
}

// TestPerRelationFenceIsolation pins the point of per-relation lanes: a
// read that depends only on relation R drains R's lane and leaves an
// unrelated relation's deep backlog untouched — the fence costs O(R's own
// backlog), not O(total backlog). The drain counter of the backlogged
// lane pins that it was NOT drained, not merely that its depth survived.
func TestPerRelationFenceIsolation(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	router.aq.paused.Store(true)
	const deep = 50
	for i := int64(0); i < deep; i++ {
		if _, err := router.Insert("carrier", freshCarrier(i)); err != nil {
			t.Fatal(err)
		}
	}
	tup := freshPlane(1)
	if _, err := router.Insert("plane", tup); err != nil {
		t.Fatal(err)
	}
	cDepth0, cDrains0 := router.aq.laneStats("carrier")
	pDepth0, _ := router.aq.laneStats("plane")
	if cDepth0 != deep || pDepth0 != 1 {
		t.Fatalf("backlog setup: carrier depth %d (want %d), plane depth %d (want 1)", cDepth0, deep, pDepth0)
	}

	// A query reading only plane fences only plane's lane.
	q, err := router.Parse(`q(model) :- plane(90001, airline, model, year)`)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 1 {
		t.Fatalf("plane read returned %d rows, want 1 (read-your-writes through the lane fence)", table.Len())
	}
	pDepth1, _ := router.aq.laneStats("plane")
	cDepth1, cDrains1 := router.aq.laneStats("carrier")
	if pDepth1 != 0 {
		t.Errorf("plane lane depth %d after a plane read, want 0", pDepth1)
	}
	if cDepth1 != deep {
		t.Errorf("carrier lane depth %d after a plane read, want %d (unrelated backlog must survive)", cDepth1, deep)
	}
	if cDrains1 != cDrains0 {
		t.Errorf("carrier lane was drained %d times by a plane read, want 0", cDrains1-cDrains0)
	}

	// fenceAll still drains everything.
	router.aq.paused.Store(false)
	router.aq.fenceAll()
	if s := router.ApplyQueueStats(); s.Depth != 0 {
		t.Errorf("fenceAll left a backlog of %d", s.Depth)
	}
}

// TestKeyedReadMidCopy pins what replaced double-routing: with a 2→4
// move frozen in its copy phase, a keyed fast-path read is one
// single-shard execution on the key's owner under the readers' ring —
// which invariant 1 of move.go keeps complete — whether or not the key is
// changing owner, and its answer is the oracle's.
func TestKeyedReadMidCopy(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 2)

	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	calls := 0
	router.hookMigBatch = func() {
		calls++
		if calls > 2 {
			once.Do(func() { close(started) })
			<-hold
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := router.Reshard(context.Background(), 4)
		done <- err
	}()
	<-started

	mv := router.move.Load()
	if mv == nil || mv.phase.Load() != phaseCopy {
		t.Fatal("no live copy-phase move after freeze")
	}
	moved, stayed := int64(-1), int64(-1)
	for k := int64(0); k < 1000 && (moved < 0 || stayed < 0); k++ {
		v := value.NewInt(k)
		same := mv.old.st.members[mv.old.st.ring.OwnerOf(v)] == mv.new.st.members[mv.new.st.ring.OwnerOf(v)]
		if !same && moved < 0 {
			moved = k
		}
		if same && stayed < 0 {
			stayed = k
		}
	}
	if moved < 0 || stayed < 0 {
		t.Fatal("could not find both a moved and an unmoved key")
	}

	for _, key := range []int64{moved, stayed} {
		q, err := router.Parse(`q(airline) :- ontime(f, ` + value.NewInt(key).String() + `, d, airline, m, delay)`)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rs0 := router.RouteStats()
		got, _, err := router.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rs1 := router.RouteStats()
		if rs1.Single != rs0.Single+1 || rs1.Scattered != rs0.Scattered || rs1.Residue != rs0.Residue {
			t.Errorf("mid-copy keyed read of origin %d: routes %+v → %+v, want Single +1 only", key, rs0, rs1)
		}
		if !want.Equal(got) {
			t.Errorf("mid-copy keyed read of origin %d: %d rows sharded vs %d oracle", key, got.Len(), want.Len())
		}
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("unfrozen reshard failed: %v", err)
	}
	router.hookMigBatch = nil
}

// TestGatherFirstErrorPath pins gather's error contract under the worker
// pools: when one shard errors mid-scatter, Execute returns that error
// (first in member order), discards every sibling result, counts the
// decision exactly once, and the router keeps serving afterwards.
func TestGatherFirstErrorPath(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 3)
	// Break shard 1 through a side channel the engine cannot see: its
	// bounded plans will fail their index fetches.
	broken := router.state.Load().members[1]
	broken.eng.DB().DropIndexes()

	q, err := router.Parse(`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`)
	if err != nil {
		t.Fatal(err)
	}
	rs0 := router.RouteStats()
	var q0 [3]int64
	for i, m := range router.state.Load().members {
		q0[i] = m.queries.Load()
	}
	table, _, err := router.Execute(q, core.DefaultOptions())
	if err == nil {
		t.Fatal("scatter over a broken shard returned no error")
	}
	if !strings.Contains(err.Error(), "no index") {
		t.Fatalf("error = %v, want the broken shard's fetch failure", err)
	}
	if table != nil {
		t.Error("sibling results not discarded: non-nil table alongside the error")
	}
	rs1 := router.RouteStats()
	if rs1.Scattered != rs0.Scattered+1 {
		t.Errorf("Scattered %d → %d, want exactly +1", rs0.Scattered, rs1.Scattered)
	}
	if rs1.Single != rs0.Single || rs1.Residue != rs0.Residue {
		t.Errorf("error path corrupted unrelated counters: %+v → %+v", rs0, rs1)
	}
	for i, m := range router.state.Load().members {
		if got := m.queries.Load(); got != q0[i]+1 {
			t.Errorf("shard %d query counter %d → %d, want +1 (every member executed)", i, q0[i], got)
		}
	}
	// The pools and the router survive the error: a keyed read on an
	// unbroken shard still answers.
	key := int64(-1)
	for k := int64(0); k < 1000; k++ {
		if router.ownerOf(value.NewInt(k)) != 1 {
			key = k
			break
		}
	}
	if key < 0 {
		t.Fatal("no key owned by an unbroken shard")
	}
	fb, err := router.Parse(`q(airline) :- ontime(f, ` + value.NewInt(key).String() + `, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(fb, core.DefaultOptions()); err != nil {
		t.Fatalf("router stopped serving after a gather error: %v", err)
	}
}

// TestReshardPrewarmsFreshEngines asserts the routing-aware prewarm: the
// plan caches of engines created by a growing Reshard are compiled from
// the router's query history before the flip, so they start warm.
func TestReshardPrewarmsFreshEngines(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	for _, src := range []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,
		`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`,
		`q(cname) :- carrier(3, cname, country)`,
	} {
		q, err := router.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := router.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	members := router.state.Load().members
	if len(members) != 4 {
		t.Fatalf("expected 4 members after growth, got %d", len(members))
	}
	for i := 2; i < 4; i++ {
		if got := members[i].eng.CacheStats().Entries; got < 3 {
			t.Errorf("fresh shard %d has %d prewarmed plan-cache entries, want >= 3", i, got)
		}
	}
	// A keyed repeat right after the flip hits a warm cache wherever the
	// key now lives.
	q, err := router.Parse(`q(airline) :- ontime(f, 42, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("first keyed repeat after growth missed the plan cache despite prewarming")
	}
}

// TestWorkerPoolBoundsConcurrency pins the pool contract: at most limit
// tasks run on pool workers at once, plus the submitter itself when the
// queue overflows into inline execution.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const limit = 2
	p := newWorkerPool(limit)
	var running, maxRunning atomic.Int32
	var wg sync.WaitGroup
	const tasks = 40
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				m := maxRunning.Load()
				if n <= m || maxRunning.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		})
	}
	wg.Wait()
	// limit pool workers + the submitting goroutine's inline overflow.
	if got := maxRunning.Load(); got > limit+1 {
		t.Errorf("observed %d concurrent tasks, want <= %d", got, limit+1)
	}
	if p.active.Load() != 0 {
		t.Errorf("%d workers still resident after drain", p.active.Load())
	}
}

// TestMutateValidation pins the up-front write validation: unknown
// relations and arity mismatches fail before anything is applied or
// enqueued.
func TestMutateValidation(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	s0 := router.ApplyQueueStats()
	if _, err := router.Insert("nosuch", value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if _, err := router.Delete("nosuch", value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("delete from unknown relation accepted")
	}
	if _, err := router.Insert("ontime", value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("insert with wrong arity accepted")
	}
	if s1 := router.ApplyQueueStats(); s1.Enqueued != s0.Enqueued {
		t.Errorf("rejected writes were enqueued: %d → %d", s0.Enqueued, s1.Enqueued)
	}
}

// TestRouterWriteVerdicts asserts the anchor-side verdict reports set
// semantics over the cluster for both partitioned and broadcast writes.
func TestRouterWriteVerdicts(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	tup := freshOntime(9)
	if ch, err := router.Insert("ontime", tup); err != nil || !ch {
		t.Fatalf("fresh insert: changed=%v err=%v", ch, err)
	}
	if ch, err := router.Insert("ontime", tup); err != nil || ch {
		t.Fatalf("duplicate insert: changed=%v err=%v, want no-op", ch, err)
	}
	if ch, err := router.Delete("ontime", tup); err != nil || !ch {
		t.Fatalf("delete of present tuple: changed=%v err=%v", ch, err)
	}
	if ch, err := router.Delete("ontime", tup); err != nil || ch {
		t.Fatalf("delete of absent tuple: changed=%v err=%v, want no-op", ch, err)
	}
	// A replicated relation routes to every shard; the verdict still
	// reflects the cluster state exactly once.
	rep := value.Tuple{value.NewInt(9001), value.NewStr("Test Air"), value.NewInt(1)}
	if ch, err := router.Insert("carrier", rep); err != nil || !ch {
		t.Fatalf("replicated insert: changed=%v err=%v", ch, err)
	}
	if ch, err := router.Insert("carrier", rep); err != nil || ch {
		t.Fatalf("replicated duplicate: changed=%v err=%v", ch, err)
	}
	if ch, err := router.Delete("carrier", rep); err != nil || !ch {
		t.Fatalf("replicated delete: changed=%v err=%v", ch, err)
	}
}
