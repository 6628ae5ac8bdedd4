//go:build !race

package ivm

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestSeedAccessBudget is the bounded-access regression gate: on AIRCA at
// scale 1.0 (50k tuples), materializing a flight lookup and an
// airlines-of-origin fan-out reads at most N tuples — N being the bound of
// the access constraint that covers the leaf — scans none, and allocates
// within a fixed budget (the relation-copying seeding allocated ~80 000
// times per view here). A full scan creeping back into view construction
// fails this test, not a benchmark. Guarded by !race because race
// instrumentation changes allocation counts.
func TestSeedAccessBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("generates AIRCA at scale 1.0")
	}
	d := workload.Airca()
	db, err := d.Gen(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ontime, err := db.Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	value.SortTuples(ontime)
	a := ontime[len(ontime)/2]
	for _, tc := range []struct {
		name, src string
		n         int64   // the covering constraint's bound
		allocs    float64 // budget for Build + Seed
	}{
		{"ontime(fid=c)", fmt.Sprintf(`q(origin, dest, airline, month, delay) :- ontime(%d, origin, dest, airline, month, delay)`, a[0].I), 1, 120},
		{"ontime(origin=c)→airline", fmt.Sprintf(`q(airline) :- ontime(f, %d, d, airline, m, delay)`, a[1].I), 28, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := parser.Parse(tc.src, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := ra.Normalize(q, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			var v *View
			allocs := testing.AllocsPerRun(20, func() {
				if v, err = Materialize(norm, d.Schema, db, nil, 1<<18); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d fetched, %d scanned, %.0f allocs per materialization", v.seedFetched, v.seedScanned, allocs)
			if v.seedFetched < 1 || v.seedFetched > tc.n || v.seedScanned != 0 {
				t.Errorf("seeding read %d tuples via index and %d via scan; the constraint bounds it by %d and 0",
					v.seedFetched, v.seedScanned, tc.n)
			}
			if allocs > tc.allocs {
				t.Errorf("materialization allocates %.0f times, budget %.0f", allocs, tc.allocs)
			}
			if v.Published().Len() == 0 {
				t.Error("the anchored query has an empty answer: the budget measured nothing")
			}
		})
	}
}
