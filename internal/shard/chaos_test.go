package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// The differential chaos harness: seeded goroutines fire queries, tuple
// writes and constraint toggles at a sharded router while Reshard(2→4)
// and Reshard(4→2) run underneath, and every checked query answer is
// asserted equal to a single-engine oracle — before, during and after
// each move. Run under -race this is the package's strongest evidence
// that online rebalancing never serves a wrong answer.
//
// Determinism strategy: a world lock (RWMutex) makes the comparisons
// meaningful without serializing the chaos. Writers and the constraint
// toggler apply each operation to BOTH the router and the oracle while
// holding the lock shared, so any number run concurrently; the checker
// takes it exclusively, which quiesces mutations (both sides have applied
// identical operation sets) but deliberately NOT the migration — row
// movement keeps running through every check, which is exactly what the
// test is probing. Writers touch disjoint tuple sets so their
// router/oracle pairs cannot interleave into divergent states.

// chaosWorld pairs the router with its single-engine oracle.
type chaosWorld struct {
	t      *testing.T
	d      *workload.Dataset
	oracle *core.Engine
	router *Router
	lock   sync.RWMutex
	parsed []ra.Query
	names  []string
}

func newChaosWorld(t *testing.T, shards int) *chaosWorld {
	t.Helper()
	eng, router, d := buildPair(t, "AIRCA", shards)
	// Materialization asymmetry: the router's members admit a view on the
	// very first plan-cache hit, the oracle never materializes — so every
	// check compares delta-maintained answers against freshly executed
	// ones, and a wrong delta rule diverges immediately.
	eng.SetIVMConfig(ivm.Config{})
	router.SetIVMConfig(ivm.Config{Budget: 32, MinHits: 1, MinScore: 0, MaxViewRows: 1 << 18})
	w := &chaosWorld{t: t, d: d, oracle: eng, router: router}
	for _, src := range []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,                                                                                           // keyed fast path (owner changes mid-move)
		`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`,                                                                                     // scatter, uncovered
		`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`,                                                               // scatter, covered
		`q(origin, dest, cause) :- ontime(77, origin, dest, al, m, delay), delaycause(77, cause, mins)`,                                               // residue, covered: bounded plan over routed fetches
		`q(origin, cause) :- ontime(f, origin, dest, al, m, delay), delaycause(f, cause, mins)`,                                                       // residue, uncovered: baseline over routed scans
		`(q(origin) :- ontime(f, origin, dest, al, m, delay)) EXCEPT (q(origin) :- delaycause(f2, origin, mins))`,                                     // residue: difference over a partitioned right operand
		`q(cname) :- carrier(3, cname, country)`,                                                                                                      // broadcast-only single shard
		`(q(airline) :- ontime(f, 42, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, 0), ontime(f2, 42, d2, airline, m2, delay2))`, // non-monotone keyed fast path
		`q(dest) :- ontime(f, 42, dest, 7, m, delay)`,                                                                                                 // IVM probe: hot keyed single-shard, maintained under the ontime churn
		`q(country) :- carrier(9500, cname, country)`,                                                                                                 // IVM probe: broadcast-only, maintained through the apply queue's batched lane
		`(q(cname) :- carrier(al, cname, country)) EXCEPT (q(cname) :- carrier(al2, cname, 2))`,                                                       // IVM probe: Diff-shaped over the churned broadcast relation (membership flips)
	} {
		q, err := router.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		w.parsed = append(w.parsed, q)
		w.names = append(w.names, src)
	}
	return w
}

// check runs every probe query on both sides under the exclusive lock and
// fails on any divergence, including a residue route reading other tuples
// than the oracle (routedParity). Mutations are quiesced; migration is
// not.
func (w *chaosWorld) check(label string) {
	w.t.Helper()
	w.lock.Lock()
	defer w.lock.Unlock()
	for i, q := range w.parsed {
		want, wantRep, err := w.oracle.Execute(q, core.DefaultOptions())
		if err != nil {
			w.t.Fatalf("%s: oracle %s: %v", label, w.names[i], err)
		}
		kind, err := w.router.RouteKind(q)
		if err != nil {
			w.t.Fatalf("%s: route %s: %v", label, w.names[i], err)
		}
		got, gotRep, err := w.router.Execute(q, core.DefaultOptions())
		if err != nil {
			w.t.Fatalf("%s: sharded %s: %v", label, w.names[i], err)
		}
		if !want.Equal(got) {
			w.t.Errorf("%s: %s: %d rows sharded vs %d oracle", label, w.names[i], got.Len(), want.Len())
		}
		if wantRep.Covered != gotRep.Covered || wantRep.Bounded != gotRep.Bounded {
			w.t.Errorf("%s: %s: verdict covered %v/%v bounded %v/%v", label, w.names[i],
				gotRep.Covered, wantRep.Covered, gotRep.Bounded, wantRep.Bounded)
		}
		// A placement flip between the two RouteKind calls may have moved
		// the query to another route; parity is only asked of a route
		// that held across the execution.
		if after, err := w.router.RouteKind(q); err != nil || after != kind {
			continue
		}
		if err := routedParity(kind, wantRep, gotRep); err != nil {
			w.t.Errorf("%s: %s: %v", label, w.names[i], err)
		}
	}
}

// placement runs assertPlacement under the exclusive lock, as check does:
// with a broadcast writer live, anchor-vs-member row counts read without
// it race the asynchronous apply lane and report copies that are merely
// still queued.
func (w *chaosWorld) placement(label string) {
	w.t.Helper()
	w.lock.Lock()
	defer w.lock.Unlock()
	assertPlacement(w.t, label, w.router)
}

// applyBoth applies one tuple write to router and oracle under the shared
// lock.
func (w *chaosWorld) applyBoth(del bool, rel string, t value.Tuple) error {
	w.lock.RLock()
	defer w.lock.RUnlock()
	if del {
		if _, err := w.router.Delete(rel, t); err != nil {
			return err
		}
		_, err := w.oracle.Delete(rel, t)
		return err
	}
	if _, err := w.router.Insert(rel, t); err != nil {
		return err
	}
	_, err := w.oracle.Insert(rel, t)
	return err
}

// TestChaosReshardDifferential is the acceptance run: queries, batch
// writes and constraint toggles race two live reshards, with oracle
// checks before, during and after each move, and a no-toggle phase
// proving tuple movement alone never bumps Version.
func TestChaosReshardDifferential(t *testing.T) {
	w := newChaosWorld(t, 2)
	router := w.router

	// Throttle migration batches so moves stay in flight long enough for
	// mid-move checks, and hand the main goroutine a token per batch.
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
	errCh := make(chan error, 16)

	// Writers: disjoint fresh-tuple ranges plus disjoint samples of live
	// rows, each op applied to both sides. Samples come from the oracle,
	// which holds the identical full instance.
	rows, err := w.oracle.DB().Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	const writers = 3
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			base := int64(800000 + 10000*wid)
			for n := int64(0); !stop.Load(); n++ {
				fresh := value.Tuple{value.NewInt(base + n%64), value.NewInt(n % 97), value.NewInt(12),
					value.NewInt(7), value.NewInt(1), value.NewInt(30)}
				sample := rows[(wid*977+int(n))%len(rows)]
				for _, op := range []struct {
					del bool
					t   value.Tuple
				}{{false, fresh}, {true, sample}, {false, sample}, {true, fresh}} {
					if err := w.applyBoth(op.del, "ontime", op.t); err != nil {
						errCh <- fmt.Errorf("writer %d: %w", wid, err)
						return
					}
				}
			}
		}(i)
	}

	// Broadcast writer: churns a fresh carrier range so the asynchronous
	// apply lane (anchor sync, other members queued) runs hot through both
	// reshards — the probes reading carrier fence it on every check.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := int64(0); !stop.Load(); n++ {
			fresh := value.Tuple{value.NewInt(9500 + n%32), value.NewInt(901), value.NewInt(2)}
			if err := w.applyBoth(false, "carrier", fresh); err != nil {
				errCh <- fmt.Errorf("broadcast writer: %w", err)
				return
			}
			if err := w.applyBoth(true, "carrier", fresh); err != nil {
				errCh <- fmt.Errorf("broadcast writer: %w", err)
				return
			}
		}
	}()

	// Constraint toggler: add/remove the same constraint on both sides
	// within one shared-lock hold, so checks always see identical access
	// schemas.
	var toggling atomic.Bool
	toggling.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := access.Constraint{Rel: "plane", X: []string{"model"}, Y: []string{"tailnum"}, N: 5000}
		for !stop.Load() {
			w.lock.RLock()
			// Re-check under the lock: once the main goroutine has parked
			// the toggler and run an exclusive-lock check, no new pair may
			// start, or it would race the no-bump version snapshot.
			if !toggling.Load() {
				w.lock.RUnlock()
				time.Sleep(time.Millisecond)
				continue
			}
			err1 := router.AddConstraints(c)
			err2 := w.oracle.AddConstraints(c)
			router.RemoveConstraint(c)
			w.oracle.RemoveConstraint(c)
			w.lock.RUnlock()
			if err1 != nil || err2 != nil {
				errCh <- fmt.Errorf("toggle: router %v, oracle %v", err1, err2)
				return
			}
		}
	}()

	// reshard drives one move while the main goroutine interleaves
	// mid-move checks every time a migration batch completes.
	reshard := func(target int, label string) int {
		done := make(chan error, 1)
		go func() {
			_, err := router.Reshard(context.Background(), target)
			done <- err
		}()
		mid := 0
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return mid
			case <-tokens:
				if router.ringStatus().Migration != nil {
					w.check("during " + label)
					mid++
				}
			}
		}
	}

	w.check("before 2→4")
	mid1 := reshard(4, "2→4")
	w.check("after 2→4")
	if got := router.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d after grow", got)
	}

	// Phase two runs with the toggler parked: any Version movement now
	// could only come from tuple movement, which must never cause one.
	// The exclusive-lock check drains any in-flight toggle pair before
	// the version snapshot.
	toggling.Store(false)
	w.check("before 4→2")
	v0 := router.Version()
	mid2 := reshard(2, "4→2")
	w.check("after 4→2")
	if v1 := router.Version(); v1 != v0 {
		t.Errorf("tuple movement bumped Version %d → %d during 4→2", v0, v1)
	}

	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if mid1 == 0 || mid2 == 0 {
		t.Errorf("no mid-migration checks ran (grow %d, shrink %d) — harness lost its 'during' coverage", mid1, mid2)
	}
	stats := router.Stats().Shards
	for _, st := range stats[1:] {
		if st.Version != stats[0].Version {
			t.Errorf("version skew after chaos: %s at %d, %s at %d",
				stats[0].Label, stats[0].Version, st.Label, st.Version)
		}
	}
	// The IVM probes must actually have exercised maintenance: views
	// admitted on member engines, delta rules folded the chaos writes in.
	// (Reshards purge materializations, so the checks around each move
	// re-admit; the counters are cumulative and survive the purges.)
	if ivmSt := router.IVMStats(); ivmSt.Admitted == 0 || ivmSt.DeltaApplies == 0 {
		t.Errorf("IVM probes never exercised maintenance: admitted %d, delta applies %d, hits %d",
			ivmSt.Admitted, ivmSt.DeltaApplies, ivmSt.Hits)
	}
	assertPlacement(t, "after chaos", router)
}
