package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// assertDifferential runs every workload template on both engines and
// fails on any row-set or verdict mismatch.
func assertDifferential(t *testing.T, label string, eng *core.Engine, router *Router, d *workload.Dataset) {
	t.Helper()
	for _, tpl := range d.Templates() {
		q, err := eng.Parse(tpl.Src)
		if err != nil {
			t.Fatalf("%s/%s: parse: %v", label, tpl.Name, err)
		}
		want, wantRep, err := eng.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s/%s: oracle: %v", label, tpl.Name, err)
		}
		got, gotRep, err := router.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s/%s: sharded: %v", label, tpl.Name, err)
		}
		if !want.Equal(got) {
			t.Errorf("%s/%s: rows differ: %d vs %d", label, tpl.Name, want.Len(), got.Len())
		}
		if wantRep.Covered != gotRep.Covered || wantRep.Bounded != gotRep.Bounded {
			t.Errorf("%s/%s: verdicts differ: covered %v/%v bounded %v/%v", label, tpl.Name,
				wantRep.Covered, gotRep.Covered, wantRep.Bounded, gotRep.Bounded)
		}
	}
}

// assertPlacement fails unless every member holds only the keyed rows the
// live ring assigns it (no leftovers) and exactly the anchor's copy of
// every broadcast relation. The apply lanes are fenced first so pending
// broadcast copies cannot read as divergence.
func assertPlacement(t *testing.T, label string, router *Router) {
	t.Helper()
	router.aq.fenceAll()
	st := router.state.Load()
	ps := router.part.Load()
	for _, rel := range router.schema.Relations() {
		pos, partitioned := ps.keyPos[rel]
		anchorRows, err := st.members[0].eng.DB().Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range st.members {
			rows, err := m.eng.DB().Rows(rel)
			if err != nil {
				t.Fatal(err)
			}
			if !partitioned {
				if len(rows) != len(anchorRows) {
					t.Errorf("%s: shard %d holds %d rows of broadcast %s, anchor has %d",
						label, i, len(rows), rel, len(anchorRows))
					continue
				}
				if i > 0 {
					for _, r := range anchorRows {
						if ok, _ := m.eng.DB().Has(rel, r); !ok {
							t.Errorf("%s: shard %d missing a broadcast %s row the anchor holds", label, i, rel)
							break
						}
					}
				}
				continue
			}
			for _, r := range rows {
				if o := st.ring.OwnerOf(r[pos]); o != i {
					t.Errorf("%s: shard %d holds leftover %s row owned by %d", label, i, rel, o)
				}
			}
		}
	}
}

// TestReshardGrowShrink is the quiescent end-to-end: grow 2→4, then
// shrink 4→2, asserting after each move that answers still match the
// single-engine oracle, placement is exact, the epoch advanced, versions
// stay in lockstep, and tuple movement never bumped any Version.
func TestReshardGrowShrink(t *testing.T) {
	eng, router, d := buildPair(t, "AIRCA", 2)
	v0 := router.Version()
	e0 := router.RingEpoch()
	assertDifferential(t, "before", eng, router, d)

	rep, err := router.Reshard(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 2 || rep.To != 4 || rep.Epoch != e0+1 {
		t.Fatalf("grow report: %+v", rep)
	}
	if rep.Moved == 0 {
		t.Fatal("grow moved no rows")
	}
	if got := router.NumShards(); got != 4 {
		t.Fatalf("NumShards after grow = %d", got)
	}
	if got := len(router.Stats().Shards); got != 4 {
		t.Fatalf("Stats().Shards after grow has %d entries, want 4 shards", got)
	}
	if router.Version() != v0 {
		t.Fatalf("grow bumped Version %d -> %d", v0, router.Version())
	}
	for _, st := range router.Stats().Shards {
		if st.Version != v0 {
			t.Errorf("%s at version %d after grow, want %d", st.Label, st.Version, v0)
		}
	}
	assertPlacement(t, "after grow", router)
	assertDifferential(t, "after grow", eng, router, d)

	rep, err = router.Reshard(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 4 || rep.To != 2 || rep.Epoch != e0+2 {
		t.Fatalf("shrink report: %+v", rep)
	}
	if got := router.NumShards(); got != 2 {
		t.Fatalf("NumShards after shrink = %d", got)
	}
	if router.Version() != v0 {
		t.Fatalf("shrink bumped Version %d -> %d", v0, router.Version())
	}
	assertPlacement(t, "after shrink", router)
	assertDifferential(t, "after shrink", eng, router, d)
	if status := router.Stats().Ring; status.Migration != nil || status.Epoch != e0+2 || status.Shards != 2 {
		t.Fatalf("ring after shrink: %+v", status)
	}
}

// TestReshardMinimalMovement pins the point of consistent hashing at the
// data layer: growing N→N+1 streams roughly 1/(N+1) of the keyed rows,
// not a reshuffle of everything.
func TestReshardMinimalMovement(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 4)
	// Keyed rows live disjointly across the members; their sum is the
	// logical keyed row count.
	var keyed int64
	st := router.state.Load()
	for rel := range router.part.Load().keyPos {
		for _, m := range st.members {
			rows, err := m.eng.DB().Rows(rel)
			if err != nil {
				t.Fatal(err)
			}
			keyed += int64(len(rows))
		}
	}
	rep, err := router.Reshard(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(rep.Moved) / float64(keyed)
	// 1/5 expected; allow generous slack for hash variance on a small
	// instance and for the dataset's skewed key populations.
	if frac > 0.35 {
		t.Errorf("grow 4→5 moved %.2f of keyed rows (%d/%d), want ~0.20", frac, rep.Moved, keyed)
	}
	if rep.Seeded == 0 {
		t.Error("growth seeded no broadcast rows onto the fresh engine")
	}
	assertPlacement(t, "after grow", router)
}

// TestReshardAbort cancels a migration mid-copy and asserts the rollback:
// same epoch, same shard count, exact placement under the old ring, and
// oracle-equal answers.
func TestReshardAbort(t *testing.T) {
	eng, router, d := buildPair(t, "AIRCA", 2)
	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	router.hookMigBatch = func() {
		batches++
		if batches == 3 {
			cancel()
		}
	}
	_, err := router.Reshard(ctx, 4)
	if err == nil {
		t.Fatal("cancelled Reshard returned nil error")
	}
	router.hookMigBatch = nil
	if got := router.NumShards(); got != 2 {
		t.Fatalf("NumShards after abort = %d, want 2", got)
	}
	if got := router.RingEpoch(); got != 1 { // unchanged from New's initial epoch
		t.Fatalf("abort moved the epoch to %d", got)
	}
	if status := router.Stats().Ring; status.Migration != nil {
		t.Fatalf("migration still visible after abort: %+v", status.Migration)
	}
	assertPlacement(t, "after abort", router)
	assertDifferential(t, "after abort", eng, router, d)
	// The cluster must accept a fresh Reshard after an abort.
	if _, err := router.Reshard(context.Background(), 3); err != nil {
		t.Fatalf("reshard after abort: %v", err)
	}
	assertPlacement(t, "after retry", router)
	assertDifferential(t, "after retry", eng, router, d)
}

// TestReshardValidation covers the argument and concurrency guards.
func TestReshardValidation(t *testing.T) {
	_, router, _ := buildPair(t, "MCBM", 2)
	if _, err := router.Reshard(context.Background(), 0); err == nil {
		t.Error("Reshard(0) did not fail")
	}
	rep, err := router.Reshard(context.Background(), 2)
	if err != nil || rep.Moved != 0 {
		t.Errorf("same-size reshard: rep=%+v err=%v", rep, err)
	}
	// Hold a migration open and assert overlap is refused.
	hold := make(chan struct{})
	held := make(chan struct{})
	once := false
	router.hookMigBatch = func() {
		if !once {
			once = true
			close(held)
			<-hold
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := router.Reshard(context.Background(), 3)
		done <- err
	}()
	<-held
	if _, err := router.Reshard(context.Background(), 4); err != ErrReshardInProgress {
		t.Errorf("overlapping reshard: err=%v, want ErrReshardInProgress", err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held reshard failed: %v", err)
	}
	router.hookMigBatch = nil
	if got := router.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d after reshard to 3", got)
	}
}

// TestReshardKeepsCachedPlans asserts the serving-layer invariant across
// a membership change: a plan cached before Reshard keeps serving after
// it (same fingerprint, no recompile) on surviving engines, and a repeat
// query still sees every row.
func TestReshardKeepsCachedPlans(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	q, err := router.Parse(`q(airline) :- ontime(f, 42, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	want, _, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	got, rep, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("keyed answer changed across reshard: %d vs %d rows", want.Len(), got.Len())
	}
	// The key 42 may now live on a different shard (cold cache there), but
	// if it stayed put the old plan must still be serving.
	owner := router.ownerOf(value.NewInt(42))
	_ = rep
	if owner < 2 && !rep.CacheHit {
		t.Errorf("key stayed on surviving shard %d but the cached plan was recompiled", owner)
	}
	// A second repeat must hit wherever it lives now.
	_, rep2, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit {
		t.Error("repeat query after reshard missed the plan cache")
	}
}

// TestReshardWritesDuringMigration drives writes through every migration
// phase via the batch hook and asserts none are lost and no deleted
// tuple survives anywhere.
func TestReshardWritesDuringMigration(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	fresh := func(i int64) value.Tuple {
		return value.Tuple{value.NewInt(900000 + i), value.NewInt(i), value.NewInt(12),
			value.NewInt(7), value.NewInt(1), value.NewInt(30)}
	}
	// A broadcast-relation tuple deleted mid-migration must not be
	// resurrected by the seeding loop from a stale anchor probe — the
	// anchor commits broadcast writes synchronously, so the stripe-locked
	// presence probe is exact.
	repFresh := func(i int64) value.Tuple {
		return value.Tuple{value.NewInt(9100 + i), value.NewStr("Mig Air"), value.NewInt(1)}
	}
	// Tuples inserted then deleted mid-migration must be gone everywhere;
	// tuples inserted and kept must be exactly at their new owner.
	var step int64
	router.hookMigBatch = func() {
		i := step
		step++
		keep := fresh(2*i + 1)
		tomb := fresh(2 * i)
		if _, err := router.Insert("ontime", keep); err != nil {
			t.Error(err)
		}
		if _, err := router.Insert("ontime", tomb); err != nil {
			t.Error(err)
		}
		if _, err := router.Delete("ontime", tomb); err != nil {
			t.Error(err)
		}
		if _, err := router.Insert("carrier", repFresh(i)); err != nil {
			t.Error(err)
		}
		if _, err := router.Delete("carrier", repFresh(i)); err != nil {
			t.Error(err)
		}
	}
	if _, err := router.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	router.hookMigBatch = nil
	if step == 0 {
		t.Fatal("migration hook never ran")
	}
	assertPlacement(t, "after migration writes", router)
	for i := int64(0); i < step; i++ {
		keep, tomb := fresh(2*i+1), fresh(2*i)
		owner := router.ownerOf(keep[1])
		if ok, _ := router.state.Load().members[owner].eng.DB().Has("ontime", keep); !ok {
			t.Fatalf("kept tuple %d missing from its owner shard", i)
		}
		for s, m := range router.state.Load().members {
			if ok, _ := m.eng.DB().Has("ontime", tomb); ok {
				t.Errorf("deleted tuple %d survives on shard %d", i, s)
			}
			if ok, _ := m.eng.DB().Has("carrier", repFresh(i)); ok {
				t.Errorf("deleted broadcast tuple %d resurrected on shard %d", i, s)
			}
		}
	}
}

// TestDeleteVerdictDuringCleanup pins the write-verdict source while the
// post-flip sweep runs: a delete of a live (new-owner-held) tuple whose
// old-owner copy the sweep has already removed must still report
// changed=true — the verdict comes from the owner under the readers'
// ring, not from a shard the migration has drained.
func TestDeleteVerdictDuringCleanup(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	checked := false
	router.hookMigBatch = func() {
		mv := router.move.Load()
		if checked || mv == nil || mv.phase.Load() != phaseCleanup {
			return
		}
		// Find a moved row the sweep has already taken from its old owner
		// but that is still live at its new owner. Candidate rows come from
		// the new members' slices — the union over them covers the keyed
		// relation.
		for rel := range router.part.Load().keyPos {
			for _, src := range mv.new.st.members {
				rows, err := src.eng.DB().Rows(rel)
				if err != nil {
					continue
				}
				for _, tt := range rows {
					oldM := mv.old.placement(rel, tt)[0]
					newM := mv.new.placement(rel, tt)[0]
					if oldM == newM {
						continue
					}
					hasOld, _ := oldM.eng.DB().Has(rel, tt)
					hasNew, _ := newM.eng.DB().Has(rel, tt)
					if hasOld || !hasNew {
						continue
					}
					checked = true
					ch, err := router.Delete(rel, tt)
					if err != nil {
						t.Errorf("delete during cleanup: %v", err)
						return
					}
					if !ch {
						t.Errorf("delete of a live %s tuple during cleanup reported changed=false", rel)
					}
					return
				}
			}
		}
	}
	if _, err := router.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	router.hookMigBatch = nil
	if !checked {
		t.Skip("sweep produced no observable old-owner gap; scenario not exercised this run")
	}
	assertPlacement(t, "after cleanup-phase delete", router)
}
