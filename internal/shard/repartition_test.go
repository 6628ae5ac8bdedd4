package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestRepartitionChaosDifferential drives all three placement moves —
// rekey (ontime origin → dest), promote (delaycause fid → broadcast)
// and demote (back to fid) — under concurrent writers on both moving
// relations, with oracle checks before, during and after each move.
// The probe set covers every routing strategy including the residue
// shapes, so the moves are exercised under the readers they can hurt.
func TestRepartitionChaosDifferential(t *testing.T) {
	w := newChaosWorld(t, 3)
	router := w.router

	tokens := make(chan struct{}, 1)
	router.hookMigBatch = func() {
		select {
		case tokens <- struct{}{}:
		default:
		}
		time.Sleep(200 * time.Microsecond)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// One writer per moving relation, each on a fresh disjoint range so
	// router/oracle pairs cannot interleave into divergent states.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := int64(0); !stop.Load(); n++ {
			fresh := value.Tuple{value.NewInt(810000 + n%64), value.NewInt(n % 97), value.NewInt(12),
				value.NewInt(7), value.NewInt(1), value.NewInt(30)}
			if err := w.applyBoth(false, "ontime", fresh); err != nil {
				errCh <- fmt.Errorf("ontime writer: %w", err)
				return
			}
			if err := w.applyBoth(true, "ontime", fresh); err != nil {
				errCh <- fmt.Errorf("ontime writer: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := int64(0); !stop.Load(); n++ {
			fresh := value.Tuple{value.NewInt(730000 + n%64), value.NewInt(3), value.NewInt(9)}
			if err := w.applyBoth(false, "delaycause", fresh); err != nil {
				errCh <- fmt.Errorf("delaycause writer: %w", err)
				return
			}
			if err := w.applyBoth(true, "delaycause", fresh); err != nil {
				errCh <- fmt.Errorf("delaycause writer: %w", err)
				return
			}
		}
	}()

	// move runs one Repartition while the main goroutine interleaves
	// mid-move checks every time a migration batch completes.
	move := func(rel, key, label string) *RepartitionReport {
		done := make(chan struct{})
		var rep *RepartitionReport
		var err error
		go func() {
			rep, err = router.Repartition(context.Background(), rel, key)
			close(done)
		}()
		mid := 0
		for {
			select {
			case <-done:
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if mid == 0 {
					t.Logf("%s: no mid-move checks ran (fast move)", label)
				}
				return rep
			case <-tokens:
				if router.move.Load() != nil {
					w.check("during " + label)
					mid++
				}
			}
		}
	}

	w.check("before rekey")
	v0 := router.Version()
	rep := move("ontime", "dest", "rekey ontime origin→dest")
	if rep.From != "origin" || rep.To != "dest" || rep.Moved == 0 {
		t.Errorf("rekey report %+v, want origin→dest with rows moved", rep)
	}
	w.check("after rekey")
	w.placement("after rekey")

	rep = move("delaycause", "", "promote delaycause")
	if rep.From != "fid" || rep.To != "broadcast" || rep.Moved == 0 {
		t.Errorf("promote report %+v, want fid→broadcast with rows moved", rep)
	}
	w.check("after promote")
	w.placement("after promote")

	rep = move("delaycause", "fid", "demote delaycause")
	if rep.From != "broadcast" || rep.To != "fid" {
		t.Errorf("demote report %+v, want broadcast→fid", rep)
	}
	if rep.Moved != 0 {
		t.Errorf("demote moved %d rows; a demote must copy nothing", rep.Moved)
	}
	w.check("after demote")
	w.placement("after demote")

	// Placement moves, like tuple movement, must never bump Version.
	if v1 := router.Version(); v1 != v0 {
		t.Errorf("repartitions bumped Version %d → %d", v0, v1)
	}
	if got := router.ResidueStats().Repartitions; got != 3 {
		t.Errorf("ResidueStats.Repartitions = %d, want 3", got)
	}

	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRepartitionAbort cancels a rekey mid-copy and proves the rollback:
// the placement assignment and its generation are untouched, the copies
// already streamed are swept back out, and answers still match the
// oracle.
func TestRepartitionAbort(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	gen0 := router.part.Load().gen

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	router.hookMigBatch = func() {
		calls++
		if calls == 3 {
			cancel()
		}
	}
	if _, err := router.Repartition(ctx, "ontime", "dest"); err == nil {
		t.Fatal("cancelled repartition reported success")
	}
	router.hookMigBatch = nil

	ps := router.part.Load()
	if ps.gen != gen0 || ps.keys["ontime"] != "origin" {
		t.Fatalf("abort left placement gen=%d key=%q, want gen=%d key=origin",
			ps.gen, ps.keys["ontime"], gen0)
	}
	if router.move.Load() != nil {
		t.Fatal("abort left the move published")
	}
	assertPlacement(t, "after abort", router)

	for _, src := range []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,
		`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`,
		`q(origin, cause) :- ontime(f, origin, dest, al, m, delay), delaycause(f, cause, mins)`,
	} {
		q, err := router.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := router.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Errorf("%s after abort: %d rows sharded vs %d oracle", src, got.Len(), want.Len())
		}
	}
}

// TestRepartitionValidation pins the argument checks and the no-op path.
func TestRepartitionValidation(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 2)
	ctx := context.Background()
	if _, err := router.Repartition(ctx, "nosuch", "x"); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := router.Repartition(ctx, "ontime", "altitude"); err == nil {
		t.Error("unknown attribute accepted")
	}
	rep, err := router.Repartition(ctx, "ontime", "origin")
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "origin" || rep.To != "origin" || rep.Moved != 0 {
		t.Errorf("no-op repartition report %+v", rep)
	}
}

// TestAutoDemoteOnGrowth proves the broadcast threshold: a broadcast
// relation written past Spec.BroadcastMaxRows is demoted to partitioned
// by the background Repartition, and answers keep matching the oracle
// throughout and after.
func TestAutoDemoteOnGrowth(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Shards: 3, Keys: d.ShardKeys, BroadcastMaxRows: 32}
	router, err := New(d.Schema, d.Access, db, spec)
	if err != nil {
		t.Fatal(err)
	}
	odb, err := d.Gen(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewEngine(d.Schema, d.Access, odb)
	if err != nil {
		t.Fatal(err)
	}
	if _, bc := router.part.Load().keys["carrier"]; bc {
		t.Fatal("carrier not broadcast at boot")
	}

	// Push carrier well past the 32-row threshold on both sides.
	for i := 0; i < 64; i++ {
		tup := value.Tuple{value.NewInt(int64(9600 + i)), value.NewInt(int64(900 + i)), value.NewInt(2)}
		if _, err := router.Insert("carrier", tup); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Insert("carrier", tup); err != nil {
			t.Fatal(err)
		}
	}

	// The demote runs on a background goroutine; wait for the flip.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if key, keyed := router.part.Load().keys["carrier"]; keyed {
			if key == "" {
				t.Fatalf("demoted carrier to an empty key")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("carrier not demoted after growing to %d rows (threshold %d)",
				router.sizes["carrier"].Load(), spec.BroadcastMaxRows)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Wait for the full move (sweep included) before placement checks.
	deadline = time.Now().Add(10 * time.Second)
	for router.move.Load() != nil {
		if time.Now().After(deadline) {
			t.Fatal("demote migration still published after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := router.ResidueStats().Repartitions; got != 1 {
		t.Errorf("ResidueStats.Repartitions = %d, want 1", got)
	}
	assertPlacement(t, "after auto-demote", router)

	for _, src := range []string{
		`q(cname) :- carrier(3, cname, country)`,
		`q(cname) :- carrier(9610, cname, country)`,
		`q(origin, cause) :- ontime(f, origin, dest, al, m, delay), delaycause(f, cause, mins)`,
	} {
		q, err := router.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := router.Execute(q, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Errorf("%s after auto-demote: %d rows sharded vs %d oracle", src, got.Len(), want.Len())
		}
	}
}
