//go:build !race

package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// Router allocation slack over normalizing the query. A view-served
// single-route read adds only the member's Report. A view-served scatter
// read adds gather's table and report slices, one Report per member, the
// merged Report and the union of the member tables: 12–13 on four AIRCA
// members read on the caller's goroutine, against 22–23 when each member
// read was handed to a worker pool.
const (
	singleServeAllocSlack  = 1
	scatterServeAllocSlack = 16
)

// TestRouterAllocBudget is the CI allocation gate of the router's hot
// path on AIRCA over four shards with every view warm: a view-served
// single-route Execute allocates at most Normalize's allocations plus
// singleServeAllocSlack, a view-served scatter Execute at most Normalize's
// plus scatterServeAllocSlack, and placing a key (Ring.OwnerOf) or picking
// a write stripe (stripeOf) allocates nothing. Guarded by !race because
// race instrumentation changes allocation counts.
func TestRouterAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.05, 2016)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, db, Spec{Shards: 4, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	// Admit every view on its first plan-cache hit.
	router.SetIVMConfig(ivm.Config{Budget: 64, MinHits: 1, MinScore: 0, MaxViewRows: 1 << 18})
	opts := core.DefaultOptions()
	slack := map[string]float64{"single": singleServeAllocSlack, "scatter": scatterServeAllocSlack}
	priced := map[string]int{}
	for _, tmpl := range d.Templates() {
		q, err := router.Parse(tmpl.Src)
		if err != nil {
			t.Fatal(err)
		}
		kind, err := router.RouteKind(q)
		if err != nil {
			t.Fatal(err)
		}
		budget, ok := slack[kind]
		if !ok {
			continue
		}
		var rep *core.Report
		for i := 0; i < 4 && (rep == nil || !rep.Materialized); i++ {
			if _, rep, err = router.Execute(q, opts); err != nil {
				t.Fatalf("%s: %v", tmpl.Name, err)
			}
		}
		if !rep.Materialized {
			t.Logf("%s (%s): not materialized (view shape denied); no serve to price", tmpl.Name, kind)
			continue
		}
		priced[kind]++
		normAllocs := testing.AllocsPerRun(50, func() {
			if _, err := ra.Normalize(q, d.Schema); err != nil {
				t.Fatal(err)
			}
		})
		execAllocs := testing.AllocsPerRun(50, func() {
			_, rep, err := router.Execute(q, opts)
			if err != nil || !rep.Materialized {
				t.Fatalf("%s: view serve fell through (err %v)", tmpl.Name, err)
			}
		})
		t.Logf("%s (%s): view-served Execute %.0f allocs/op, Normalize %.0f", tmpl.Name, kind, execAllocs, normAllocs)
		if execAllocs > normAllocs+budget {
			t.Errorf("%s (%s): view-served Execute allocates %.0f/op, above Normalize's %.0f + %.0f",
				tmpl.Name, kind, execAllocs, normAllocs, budget)
		}
	}
	if priced["single"] == 0 || priced["scatter"] == 0 {
		t.Fatalf("view serves priced per route kind: %v; the gate needs both single and scatter", priced)
	}

	ring := router.state.Load().ring
	tup := value.Tuple{value.NewInt(42), value.NewStr("nyc"), value.NewInt(7)}
	for _, v := range []value.Value{value.NewInt(42), value.NewStr("nyc")} {
		if n := testing.AllocsPerRun(100, func() { ring.OwnerOf(v) }); n != 0 {
			t.Errorf("OwnerOf(%v) allocates %.0f/op, want 0", v, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { stripeOf("ontime", tup) }); n != 0 {
		t.Errorf("stripeOf allocates %.0f/op, want 0", n)
	}
}
