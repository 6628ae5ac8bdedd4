//go:build !race

package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/workload"
)

// viewServeAllocSlack is what a view-served Execute may allocate beyond
// normalizing its query: the Report. The key, the view lookup and the
// frequency sketch allocate nothing.
const viewServeAllocSlack = 2

// TestKeyAllocBudget is the CI allocation gate of the serving key. On
// every template of the three datasets ra.KeyOf allocates nothing, and a
// read served from a materialized view allocates at most Normalize's
// allocations plus viewServeAllocSlack — so a string or fmt call creeping
// back into the key or the cache and view lookups fails here. Guarded by
// !race because race instrumentation changes allocation counts.
func TestKeyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	for _, d := range workload.All() {
		t.Run(d.Name, func(t *testing.T) {
			db, err := d.Gen(0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(d.Schema, d.Access, db)
			if err != nil {
				t.Fatal(err)
			}
			// Admit every view on its first plan-cache hit.
			eng.SetIVMConfig(ivm.Config{Budget: 64, MinHits: 1, MinScore: 0, MaxViewRows: 1 << 18})
			opts := core.DefaultOptions()
			served := 0
			for _, tmpl := range d.Templates() {
				q, err := parser.Parse(tmpl.Src, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				norm, err := ra.Normalize(q, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if n := testing.AllocsPerRun(100, func() { ra.KeyOf(norm) }); n != 0 {
					t.Errorf("%s: KeyOf allocates %.0f/op, want 0", tmpl.Name, n)
				}

				var rep *core.Report
				for i := 0; i < 4 && (rep == nil || !rep.Materialized); i++ {
					if _, rep, err = eng.Execute(q, opts); err != nil {
						t.Fatalf("%s: %v", tmpl.Name, err)
					}
				}
				if !rep.Materialized {
					t.Logf("%s: not materialized (view shape denied); no serve to price", tmpl.Name)
					continue
				}
				served++
				normAllocs := testing.AllocsPerRun(50, func() {
					if _, err := ra.Normalize(q, d.Schema); err != nil {
						t.Fatal(err)
					}
				})
				execAllocs := testing.AllocsPerRun(50, func() {
					_, rep, err := eng.Execute(q, opts)
					if err != nil || !rep.Materialized {
						t.Fatalf("%s: view serve fell through (err %v)", tmpl.Name, err)
					}
				})
				t.Logf("%s: view-served Execute %.0f allocs/op, Normalize %.0f", tmpl.Name, execAllocs, normAllocs)
				if execAllocs > normAllocs+viewServeAllocSlack {
					t.Errorf("%s: view-served Execute allocates %.0f/op, above Normalize's %.0f + %d",
						tmpl.Name, execAllocs, normAllocs, viewServeAllocSlack)
				}
			}
			if served == 0 {
				t.Fatal("no template was served from a view: the gate priced nothing")
			}
		})
	}
}
