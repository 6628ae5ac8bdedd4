//go:build !race

package core

import (
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/workload"
)

// adhocShapes are ad-hoc AIRCA reads of each compile shape: a single
// atom, a delaycause join, an airport join, a UNION and an EXCEPT. %[1]d is
// a flight id; %[2]d a cause of that flight's delaycause row, or a second
// flight id. budget is the allocations a cold Execute of the shape may
// make: the value measured when the compile was last cut (564, 800, 757,
// 882 and 924 at AIRCA 0.05), plus about 10%.
var adhocShapes = []struct {
	name, text string
	budget     float64
}{
	{"single-atom", `q(origin, dest, airline, month, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`, 620},
	{"delaycause-join", `q(origin, dest, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`, 880},
	{"airport-join", `q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`, 835},
	{"union", `(q(dest) :- ontime(%[1]d, o, dest, al, m, dl)) UNION (q(dest) :- ontime(%[2]d, o2, dest, al2, m2, dl2))`, 970},
	{"except", `(q(o, d) :- ontime(%[1]d, o, d, al, m, dl)) EXCEPT (q(o, d) :- ontime(%[2]d, o, d, al2, m2, dl2))`, 1015},
}

// adhocQueries parses n queries of shape text over live rows of db, each
// with constants no other one has.
func adhocQueries(t testing.TB, d *workload.Dataset, eng *Engine, text string, n int) []ra.Query {
	t.Helper()
	flights, err := eng.db.Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	causes, err := eng.db.Rows("delaycause")
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(causes) || n+1 >= len(flights) {
		t.Fatalf("%d queries need more rows than %d flights and %d causes", n, len(flights), len(causes))
	}
	out := make([]ra.Query, n)
	for i := range out {
		a, b := flights[i][0].I, flights[i+1][0].I
		if text == adhocShapes[1].text {
			a, b = causes[i][0].I, causes[i][1].I
		}
		q, err := parser.Parse(fmt.Sprintf(text, a, b), d.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// TestCompileAllocBudget is the CI allocation gate of the cold compile. A
// cold Execute of each AIRCA ad-hoc shape, with constants never seen
// before, stays within its budget, so a per-trial schema copy, a repeated
// full coverage check or an fmt label creeping back into CovChk, minA or
// QPlan fails here; and Prepared.Covers, minA's trial check, allocates
// nothing. Guarded by !race because race instrumentation changes
// allocation counts.
func TestCompileAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	d := workload.Airca()
	db, err := d.Gen(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(d.Schema, d.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	const runs = 50
	for _, shape := range adhocShapes {
		qs := adhocQueries(t, d, eng, shape.text, runs+1)
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			_, rep, err := eng.Execute(qs[i], opts)
			i++
			if err != nil || rep.CacheHit || !rep.Bounded {
				t.Fatalf("%s: not a bounded cold compile (err %v)", shape.name, err)
			}
		})
		t.Logf("%s: cold Execute %.0f allocs/op (budget %.0f)", shape.name, allocs, shape.budget)
		if allocs > shape.budget {
			t.Errorf("%s: cold Execute allocates %.0f/op, above its budget of %.0f", shape.name, allocs, shape.budget)
		}

		norm, err := ra.Normalize(qs[0], d.Schema)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cover.Prepare(norm, d.Schema, d.Access)
		if err != nil {
			t.Fatal(err)
		}
		mask := p.Full()
		mask.Clear(0)
		if n := testing.AllocsPerRun(100, func() { p.Covers(mask) }); n != 0 {
			t.Errorf("%s: Prepared.Covers allocates %.0f/op, want 0", shape.name, n)
		}
	}
}
