package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/value"
)

// moveCase builds one kind of placement move on a fresh 3-shard AIRCA
// router, without running it, and names the relations whose writes the
// table test drives through it.
type moveCase struct {
	name  string
	build func(t *testing.T, r *Router) *move
	// rels are moving relations to write; lane is whether each may use its
	// apply-queue lane during the move (broadcast on both sides).
	rels []string
	lane map[string]bool
}

var moveCases = []moveCase{
	{"grow", func(t *testing.T, r *Router) *move { return resizeMove(t, r, 4) },
		[]string{"ontime", "carrier"}, map[string]bool{"carrier": true}},
	{"shrink", func(t *testing.T, r *Router) *move { return resizeMove(t, r, 2) },
		[]string{"ontime", "carrier"}, map[string]bool{"carrier": true}},
	{"rekey", func(t *testing.T, r *Router) *move { return rekeyMove(r, "ontime", "dest") },
		[]string{"ontime"}, nil},
	{"promote", func(t *testing.T, r *Router) *move { return rekeyMove(r, "delaycause", "") },
		[]string{"delaycause"}, nil},
	{"demote", func(t *testing.T, r *Router) *move { return rekeyMove(r, "carrier", "airline") },
		[]string{"carrier"}, nil},
}

func resizeMove(t *testing.T, r *Router, n int) *move {
	t.Helper()
	old := r.live()
	next, err := r.resized(old.st, n)
	if err != nil {
		t.Fatal(err)
	}
	return r.newMove(old, assignment{st: next, ps: old.ps})
}

func rekeyMove(r *Router, rel, key string) *move {
	old := r.live()
	next := old.ps.rekeyed(rel, key, attrPos(r.schema[rel], key))
	return r.newMove(old, assignment{st: old.st, ps: next})
}

// moveTuple fabricates the i-th distinct tuple of rel outside the
// generated ranges; its partition-key columns vary with i so different
// tuples land on different owners.
func moveTuple(rel string, i int64) value.Tuple {
	switch rel {
	case "ontime":
		return value.Tuple{value.NewInt(600000 + i), value.NewInt(i), value.NewInt(3*i + 1),
			value.NewInt(7), value.NewInt(1), value.NewInt(30)}
	case "delaycause":
		return value.Tuple{value.NewInt(650000 + i), value.NewInt(3), value.NewInt(9)}
	default: // carrier
		return value.Tuple{value.NewInt(9700 + i), value.NewInt(900), value.NewInt(1)}
	}
}

// ownersOf computes a tuple's placement from the ring and key position
// directly — the test's independent reading of an assignment.
func ownersOf(a assignment, rel string, t value.Tuple) []*member {
	if pos, ok := a.ps.keyPos[rel]; ok {
		return []*member{a.st.members[a.st.ring.OwnerOf(t[pos])]}
	}
	return a.st.members
}

// ordered concatenates member lists, dropping repeats.
func ordered(lists ...[]*member) []*member {
	var out []*member
	for _, l := range lists {
		for _, m := range l {
			if !slices.Contains(out, m) {
				out = append(out, m)
			}
		}
	}
	return out
}

// TestMoveWriteTargets is the one statement of the write rule as a table:
// {grow, shrink, rekey, promote, demote} × {copy, cleanup, abort} ×
// {insert, delete}. Each row asserts the exact target list move.targets
// returns, that targets[0] is complete under the assignment readers are
// routed by (and is the anchor whenever the lane carries the rest), that
// lane use is "broadcast on both sides", and — through the real write
// path, with the applier paused — that exactly the targets change, the
// first synchronously and the rest by lane or synchronously as the lane
// rule says.
func TestMoveWriteTargets(t *testing.T) {
	phases := []struct {
		phase   int32
		del     bool
		targets func(oldT, newT []*member) []*member
		readers func(mv *move) assignment
	}{
		{phaseCopy, false, func(o, n []*member) []*member { return ordered(o, n) }, func(mv *move) assignment { return mv.old }},
		{phaseCopy, true, func(o, n []*member) []*member { return ordered(o, n) }, func(mv *move) assignment { return mv.old }},
		{phaseCleanup, false, func(o, n []*member) []*member { return n }, func(mv *move) assignment { return mv.new }},
		{phaseCleanup, true, func(o, n []*member) []*member { return ordered(n, o) }, func(mv *move) assignment { return mv.new }},
		{phaseAbort, false, func(o, n []*member) []*member { return o }, func(mv *move) assignment { return mv.old }},
		{phaseAbort, true, func(o, n []*member) []*member { return ordered(o, n) }, func(mv *move) assignment { return mv.old }},
	}
	for _, mc := range moveCases {
		t.Run(mc.name, func(t *testing.T) {
			_, router, _ := buildPair(t, "AIRCA", 3)
			router.aq.paused.Store(true)
			mv := mc.build(t, router)
			router.begin(mv)
			all := ordered(mv.old.st.members, mv.new.st.members)
			var n int64
			for _, rel := range mc.rels {
				if !mv.moves(rel) {
					t.Fatalf("%s does not move", rel)
				}
				if got := mv.lane(rel); got != mc.lane[rel] {
					t.Errorf("%s: lane = %v, want %v", rel, got, mc.lane[rel])
				}
				for _, ph := range phases {
					mv.phase.Store(ph.phase)
					// Several tuples per row so keyed cases see both owners
					// that change across the move and owners that do not.
					changed := false
					for k := 0; k < 24; k++ {
						n++
						tup := moveTuple(rel, n)
						label := fmt.Sprintf("%s %s del=%v #%d", rel, phaseNames[ph.phase], ph.del, k)
						oldT, newT := ownersOf(mv.old, rel, tup), ownersOf(mv.new, rel, tup)
						changed = changed || len(ordered(oldT, newT)) > len(oldT) || len(ordered(newT, oldT)) > len(newT)
						want := ph.targets(oldT, newT)
						got := mv.targets(rel, tup, ph.del)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: targets %v, want %v", label, got, want)
						}
						if !slices.Contains(ownersOf(ph.readers(mv), rel, tup), got[0]) {
							t.Errorf("%s: first target is not a holder under the readers' assignment", label)
						}
						if mc.lane[rel] && got[0] != all[0] {
							t.Errorf("%s: lane write does not commit on the anchor first", label)
						}
						assertWriteReaches(t, label, router, rel, tup, ph.del, all, want, mc.lane[rel])
					}
					if !changed {
						t.Errorf("%s %s: no tuple's placement differed across the move", rel, phaseNames[ph.phase])
					}
				}
			}
		})
	}
}

// assertWriteReaches drives one write through Router.mutate under the
// published move and checks which members changed: with the applier
// paused, targets[0] — and every target, when the lane is closed — must
// change before the call returns, the other lane targets only after a
// fence, and non-targets never.
func assertWriteReaches(t *testing.T, label string, router *Router, rel string, tup value.Tuple, del bool, all, want []*member, lane bool) {
	t.Helper()
	if del {
		for _, m := range all {
			if _, err := m.eng.Insert(rel, tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	var err error
	if del {
		_, err = router.Delete(rel, tup)
	} else {
		_, err = router.Insert(rel, tup)
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	check := func(when string, reached []*member) {
		for i, m := range all {
			has, _ := m.eng.DB().Has(rel, tup)
			if wantHas := slices.Contains(reached, m) != del; has != wantHas {
				t.Errorf("%s: %s member %d holds the tuple = %v, want %v", label, when, i, has, wantHas)
			}
		}
	}
	if lane {
		check("before the fence", want[:1])
	}
	router.aq.fenceAll()
	check("after the fence", want)
}

// TestQueuedInsertThenDeleteAcrossMoveStart is the deterministic
// regression for the prepare ordering bug. Script, with the applier
// paused: insert T into broadcast relation carrier (the anchor applies it,
// the lane holds the other members' copies); start a move and let it
// publish; delete T the moment a writer can see the move; finish. T must
// be gone from every member and from the served answer, during and after.
//
// The window is made visible without sleeps by holding carrier's lane
// apply mutex, which no drain can pass: a demote that publishes the move
// and only then fences the lane (the parent's order: publish, stripe
// barrier, fenceRel) is parked with the move visible and T's stripe free,
// so the delete runs synchronously, is a no-op on the members whose
// insert is still queued, and the fence then resurrects T there — this
// test reads "member 1 still holds the deleted tuple" on that order,
// every run. With begin's discipline (publish and drain while every
// stripe is held) T's stripe is taken for as long as the lane is not
// empty, so the delete waits and lands after the insert. (Blocking the
// demote at its first hookMigBatch instead does not reproduce the bug: the
// parent's fence has finished before any batch hook runs, and that script
// passes there.)
//
// The growing Reshard runs the same script as the audit of its copy
// phase: it has no such window, at the parent or here. carrier stays
// broadcast on both sides, so the delete is queued behind the insert on
// the same lane with the fresh engine among its targets, and the seeding
// copy probes the synchronously written anchor under T's stripe.
func TestQueuedInsertThenDeleteAcrossMoveStart(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		start func(r *Router) error
	}{
		{"demote", func(r *Router) error { _, err := r.Repartition(ctx, "carrier", "airline"); return err }},
		{"grow", func(r *Router) error { _, err := r.Reshard(ctx, 4); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, router, _ := buildPair(t, "AIRCA", 3)
			tup := freshCarrier(1)
			q, err := router.Parse(`q(cname) :- carrier(9001, cname, country)`)
			if err != nil {
				t.Fatal(err)
			}
			both := func(del bool) {
				apply, oapply := router.Insert, oracle.Insert
				if del {
					apply, oapply = router.Delete, oracle.Delete
				}
				if _, err := apply("carrier", tup); err != nil {
					t.Error(err)
				}
				if _, err := oapply("carrier", tup); err != nil {
					t.Error(err)
				}
			}
			assertGone := func(when string, members []*member) {
				t.Helper()
				want, _, err := oracle.Execute(q, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := router.Execute(q, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Errorf("%s: %d rows sharded vs %d oracle", when, got.Len(), want.Len())
				}
				router.aq.fenceAll()
				for i, m := range members {
					if ok, _ := m.eng.DB().Has("carrier", tup); ok {
						t.Errorf("%s: member %d still holds the deleted tuple", when, i)
					}
				}
			}

			router.aq.paused.Store(true)
			both(false)
			if depth, _ := router.aq.laneStats("carrier"); depth != 1 {
				t.Fatalf("carrier lane depth %d after a paused insert, want 1", depth)
			}
			lane := router.aq.lanes["carrier"]
			lane.amu.Lock()

			held, release := make(chan struct{}), make(chan struct{})
			first := true
			router.hookMigBatch = func() {
				if first {
					first = false
					close(held)
					<-release
				}
			}
			done := make(chan error, 1)
			go func() { done <- tc.start(router) }()
			for router.move.Load() == nil {
				runtime.Gosched()
			}
			mv := router.move.Load()

			// The move is visible. If T's stripe is free a writer can run
			// right now, so run it now; otherwise begin still holds the
			// stripes and the writer has to queue behind it.
			deleted := make(chan struct{})
			if mu := &router.wmu[stripeOf("carrier", tup)]; mu.TryLock() {
				mu.Unlock()
				both(true)
				close(deleted)
			} else {
				go func() { both(true); close(deleted) }()
			}
			lane.amu.Unlock()
			<-deleted
			<-held
			router.aq.paused.Store(false)
			members := ordered(mv.old.st.members, mv.new.st.members)
			assertGone("during the move", members)
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			router.hookMigBatch = nil
			assertGone("after the move", members)
			assertPlacement(t, "after the move", router)
		})
	}
}

// TestMoveProgress pins the shared estimator: the ring status reports a
// Repartition in flight exactly as it reports a Reshard — the relation's
// name, the phase, and row copies streamed out of a plan size that, on a
// quiescent cluster, is exactly what the copy goes on to stream.
func TestMoveProgress(t *testing.T) {
	ctx := context.Background()
	_, router, _ := buildPair(t, "AIRCA", 3)
	var seen []core.MigrationProgress
	router.hookMigBatch = func() {
		if p := router.ringStatus().Migration; p != nil && p.Phase == "copy" {
			seen = append(seen, *p)
		}
	}
	check := func(label, rel string, from, to int, streamed int64) {
		t.Helper()
		if len(seen) == 0 {
			t.Fatalf("%s: no copy-phase progress observed", label)
		}
		for _, p := range seen {
			if p.Rel != rel || p.From != from || p.To != to {
				t.Fatalf("%s: progress %+v, want rel %q %d→%d", label, p, rel, from, to)
			}
			if p.Total != streamed || p.Moved > p.Total {
				t.Fatalf("%s: progress %+v, want %d copies planned", label, p, streamed)
			}
		}
		if last := seen[len(seen)-1]; last.Moved == 0 {
			t.Errorf("%s: progress never advanced: %+v", label, last)
		}
		if router.ringStatus().Migration != nil {
			t.Errorf("%s: migration still reported after the move", label)
		}
		seen = nil
	}

	rp, err := router.Repartition(ctx, "ontime", "dest")
	if err != nil {
		t.Fatal(err)
	}
	check("rekey", "ontime", 3, 3, rp.Moved)

	rp, err = router.Repartition(ctx, "delaycause", "")
	if err != nil {
		t.Fatal(err)
	}
	check("promote", "delaycause", 3, 3, rp.Moved)

	rs, err := router.Reshard(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("grow", "", 3, 4, rs.Moved+rs.Seeded)
}
