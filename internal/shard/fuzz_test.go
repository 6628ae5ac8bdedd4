package shard

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// fuzzHarness is built once per fuzz process: a single-engine oracle plus
// routers in several ring states — different shard counts, a cluster that
// has already resharded (epoch > 1), and one frozen mid-copy with a live
// migration — all over identical copies of the same instance.
type fuzzHarnessT struct {
	oracle  *core.Engine
	routers []*Router
	err     error
}

var (
	fuzzOnce sync.Once
	fuzzH    fuzzHarnessT
)

func fuzzHarness() *fuzzHarnessT {
	fuzzOnce.Do(func() {
		build := func() (*Router, error) {
			d, err := workload.ByName("AIRCA")
			if err != nil {
				return nil, err
			}
			db, err := d.Gen(0.02, 11)
			if err != nil {
				return nil, err
			}
			return New(d.Schema, d.Access, db, Spec{Shards: 2, Keys: d.ShardKeys})
		}
		d, err := workload.ByName("AIRCA")
		if err != nil {
			fuzzH.err = err
			return
		}
		db, err := d.Gen(0.02, 11)
		if err != nil {
			fuzzH.err = err
			return
		}
		fuzzH.oracle, err = core.NewEngine(d.Schema, d.Access, db)
		if err != nil {
			fuzzH.err = err
			return
		}
		// N=1 and N=3 straight from New.
		for _, n := range []int{1, 3} {
			dbn, err := d.Gen(0.02, 11)
			if err != nil {
				fuzzH.err = err
				return
			}
			r, err := New(d.Schema, d.Access, dbn, Spec{Shards: n, Keys: d.ShardKeys})
			if err != nil {
				fuzzH.err = err
				return
			}
			fuzzH.routers = append(fuzzH.routers, r)
		}
		// A cluster that lived through 2→4→2 (epoch 3, survivors swept).
		r, err := build()
		if err == nil {
			if _, err = r.Reshard(context.Background(), 4); err == nil {
				_, err = r.Reshard(context.Background(), 2)
			}
		}
		if err != nil {
			fuzzH.err = err
			return
		}
		fuzzH.routers = append(fuzzH.routers, r)
		// A cluster frozen mid-copy: the move stays live (phase copy, rows
		// half-streamed) for the rest of the process. The blocked
		// Reshard goroutine is an intentional leak scoped to the test
		// binary.
		frozen, err := build()
		if err != nil {
			fuzzH.err = err
			return
		}
		started := make(chan struct{})
		var once sync.Once
		calls := 0
		frozen.hookMigBatch = func() {
			calls++
			if calls > 2 {
				once.Do(func() { close(started) })
				select {} // freeze forever
			}
		}
		go frozen.Reshard(context.Background(), 4) //nolint:errcheck
		<-started
		fuzzH.routers = append(fuzzH.routers, frozen)
	})
	return &fuzzH
}

// FuzzRouteDecision asserts the router's core contract on arbitrary
// generated queries: whatever the ring state — one shard, several, a
// resharded cluster, or one frozen mid-migration — Execute must return
// exactly the answer of a single engine over the unpartitioned
// instance. The seeds cover every routing strategy; the fuzzer mutates
// them into the weird shapes the analysis must stay conservative on.
func FuzzRouteDecision(f *testing.F) {
	seeds := []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,
		`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`,
		`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`,
		`q(origin, dest, cause) :- ontime(77, origin, dest, al, m, delay), delaycause(77, cause, mins)`,
		`q(cname) :- carrier(3, cname, country)`,
		`(q(airline) :- ontime(f, 42, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, 0), ontime(f2, 42, d2, airline, m2, delay2))`,
		`(q(o) :- ontime(f, o, d, a, m, x)) UNION (q(o2) :- ontime(f2, o2, d2, a2, m2, x2))`,
	}
	for i, s := range seeds {
		f.Add(uint8(i), s)
	}
	f.Fuzz(func(t *testing.T, pick uint8, src string) {
		h := fuzzHarness()
		if h.err != nil {
			t.Fatalf("harness: %v", h.err)
		}
		router := h.routers[int(pick)%len(h.routers)]
		q, err := router.Parse(src)
		if err != nil {
			t.Skip()
		}
		want, wantRep, errO := h.oracle.Execute(q, core.DefaultOptions())
		got, gotRep, errR := router.Execute(q, core.DefaultOptions())
		if (errO == nil) != (errR == nil) {
			t.Fatalf("error divergence on %q: oracle %v, sharded %v", src, errO, errR)
		}
		if errO != nil {
			return
		}
		if !want.Equal(got) {
			t.Fatalf("answer divergence on %q (router %s): %d rows sharded vs %d oracle",
				src, router, got.Len(), want.Len())
		}
		if wantRep.Covered != gotRep.Covered || wantRep.Bounded != gotRep.Bounded {
			t.Fatalf("verdict divergence on %q: covered %v/%v bounded %v/%v",
				src, gotRep.Covered, wantRep.Covered, gotRep.Bounded, wantRep.Bounded)
		}
	})
}

// FuzzResiduePlan targets residue routes: generator queries biased toward
// non-distributable shapes (cross-key joins, unions and differences over
// partitioned relations) run against every ring state — one shard,
// several, a resharded cluster, and one frozen mid-copy — and must
// reproduce the single-engine oracle exactly; a covered one must also run
// bounded and read exactly the tuples the oracle's plan reads.
// Where FuzzRouteDecision mutates query text, this fuzzer drives the
// generator's parameter space, so every input is a well-formed query
// and the residue planner/executor, not the parser, absorbs the
// fuzzing budget.
func FuzzResiduePlan(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(2), uint8(1), uint8(0))
	f.Add(uint8(1), int64(2), uint8(3), uint8(2), uint8(1))
	f.Add(uint8(2), int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(3), int64(4), uint8(4), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, pick uint8, seed int64, sel, join, unidiff uint8) {
		h := fuzzHarness()
		if h.err != nil {
			t.Fatalf("harness: %v", h.err)
		}
		d, err := workload.ByName("AIRCA")
		if err != nil {
			t.Fatal(err)
		}
		router := h.routers[int(pick)%len(h.routers)]
		rng := rand.New(rand.NewSource(seed))
		p := workload.DefaultQueryParams()
		p.Sel = 1 + int(sel)%5
		p.Join = 1 + int(join)%2 // at least one join: bias toward cross-key shapes
		p.UniDiff = int(unidiff) % 2
		q, err := d.RandomQuery(p, rng)
		if err != nil {
			t.Skip()
		}
		kind, err := router.RouteKind(q)
		if err != nil {
			t.Fatalf("RouteKind failed on a generator query: %v", err)
		}
		want, wantRep, errO := h.oracle.Execute(q, core.DefaultOptions())
		got, gotRep, errR := router.Execute(q, core.DefaultOptions())
		if (errO == nil) != (errR == nil) {
			t.Fatalf("error divergence on %q: oracle %v, sharded %v", q.String(), errO, errR)
		}
		if errO != nil {
			return
		}
		if !want.Equal(got) {
			t.Fatalf("answer divergence on %q (router %s): %d rows sharded vs %d oracle",
				q.String(), router, got.Len(), want.Len())
		}
		if wantRep.Covered != gotRep.Covered || wantRep.Bounded != gotRep.Bounded {
			t.Fatalf("verdict divergence on %q: covered %v/%v bounded %v/%v",
				q.String(), gotRep.Covered, wantRep.Covered, gotRep.Bounded, wantRep.Bounded)
		}
		if err := routedParity(kind, wantRep, gotRep); err != nil {
			t.Fatalf("%q (router %s): %v", q.String(), router, err)
		}
	})
}
