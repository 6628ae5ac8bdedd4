package core

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/discovery"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/sqlgen"
	"repro/internal/value"
	"repro/internal/workload"
)

func engine(t *testing.T) (*Engine, *workload.Facebook) {
	t.Helper()
	cfg := workload.DefaultFacebookConfig()
	cfg.Persons = 200
	fb, db, err := workload.GenFacebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(fb.Schema, fb.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fb
}

func TestExecuteCoveredQueryBoundedPath(t *testing.T) {
	eng, fb := engine(t)
	table, rep, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Covered || !rep.Bounded {
		t.Errorf("Q1 should run bounded: %+v", rep)
	}
	if rep.Plan == nil || rep.Minimized == nil {
		t.Error("report missing plan / minimized schema")
	}
	if rep.Stats.Scanned != 0 {
		t.Errorf("bounded path scanned %d tuples", rep.Stats.Scanned)
	}
	// Agreement with the baseline.
	want, _, err := eng.ExecuteBaseline(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("bounded and baseline answers differ")
	}
	// Exp-2-style latency sanity: analysis must be fast.
	if rep.CheckTime.Milliseconds() > 1000 || rep.PlanTime.Milliseconds() > 1000 {
		t.Errorf("analysis too slow: check=%v plan=%v", rep.CheckTime, rep.PlanTime)
	}
}

func TestExecuteQ0UsesRewrite(t *testing.T) {
	eng, fb := engine(t)
	table, rep, err := eng.Execute(fb.Q0(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rewritten {
		t.Fatalf("Q0 should be rewritten to covered form: %+v", rep)
	}
	if !rep.Bounded {
		t.Error("rewritten Q0 should run bounded")
	}
	want, _, err := eng.ExecuteBaseline(fb.Q0())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("rewritten bounded answer differs from baseline Q0")
	}
}

func TestExecuteFallback(t *testing.T) {
	eng, fb := engine(t)
	opts := DefaultOptions()
	opts.Rewrite = false
	table, rep, err := eng.Execute(fb.Q2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered || rep.Bounded {
		t.Error("Q2 must take the fallback path")
	}
	if table.Len() == 0 {
		t.Error("fallback produced no answer")
	}
	if rep.Stats.Scanned == 0 {
		t.Error("fallback should scan")
	}
	// Without fallback, Execute errors.
	opts.FallbackToBaseline = false
	if _, _, err := eng.Execute(fb.Q2(), opts); err == nil {
		t.Error("expected error for uncovered query without fallback")
	}
}

func TestExecuteWithoutMinimize(t *testing.T) {
	eng, fb := engine(t)
	opts := DefaultOptions()
	opts.Minimize = false
	_, rep, err := eng.Execute(fb.Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Minimized != nil {
		t.Error("minimization ran despite being disabled")
	}
	if !rep.Bounded {
		t.Error("bounded path should still run")
	}
}

func TestEngineParse(t *testing.T) {
	eng, _ := engine(t)
	q, err := eng.Parse("q(cid) :- friend(0, f), dine(f, cid, 5, 2015), cafe(cid, 'nyc')")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("parsed Q1 should be covered")
	}
}

func TestEngineSQL(t *testing.T) {
	eng, fb := engine(t)
	sql, err := eng.SQL(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "ind_") {
		t.Error("SQL does not reference index relations")
	}
	if _, err := eng.SQL(fb.Q2()); err == nil {
		t.Error("SQL for uncovered query should fail")
	}
}

func TestEngineDiscoverAndAdd(t *testing.T) {
	eng, fb := engine(t)
	opts := discovery.DefaultOptions()
	opts.MaxN = 64
	found, err := eng.Discover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if found.Len() == 0 {
		t.Fatal("nothing discovered")
	}
	before := eng.AccessSnapshot().Len()
	if err := eng.AddConstraints(found.Constraints...); err != nil {
		t.Fatal(err)
	}
	if eng.AccessSnapshot().Len() <= before {
		t.Error("no constraints added")
	}
	// Duplicates are skipped silently.
	if err := eng.AddConstraints(found.Constraints...); err != nil {
		t.Fatal(err)
	}
	// Invalid constraints are rejected atomically.
	err = eng.AddConstraints(access.Constraint{Rel: "nosuch", X: []string{"x"}, Y: []string{"y"}, N: 1})
	if err == nil {
		t.Error("invalid constraint accepted")
	}
	_ = fb
}

func TestNewEngineValidation(t *testing.T) {
	s := ra.Schema{"r": {"a"}}
	bad := access.NewSchema(access.Constraint{Rel: "zzz", X: []string{"a"}, Y: []string{"a"}, N: 1})
	if _, err := NewEngine(s, bad, nil); err == nil {
		t.Error("engine accepted invalid access schema")
	}
	good := access.NewSchema(access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"a"}, N: 1})
	eng, err := NewEngine(s, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.DB() == nil {
		t.Error("nil db not defaulted")
	}
}

func TestExecuteMoreConstraintsNeverHurtCoverage(t *testing.T) {
	eng, fb := engine(t)
	// Query covered under A0 stays covered when more constraints arrive.
	found, err := eng.Discover(discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddConstraints(found.Constraints...); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("coverage lost after adding constraints")
	}
	// And answers remain correct.
	table, rep, err := eng.Execute(fb.Q1(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.ExecuteBaseline(fb.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(want) {
		t.Error("answers differ after constraint discovery")
	}
	if !rep.Bounded {
		t.Error("bounded path lost")
	}
}

func TestExecuteEmptyAnswer(t *testing.T) {
	eng, _ := engine(t)
	// A city that does not exist: covered, bounded, empty result.
	q := ra.Proj(
		ra.Sel(ra.R("cafe", "c"), ra.EqC(ra.A("c", "city"), value.NewStr("atlantis")),
			ra.EqC(ra.A("c", "cid"), value.NewInt(1))),
		ra.A("c", "city"),
	)
	table, rep, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 0 {
		t.Errorf("expected empty answer, got %d rows", table.Len())
	}
	if !rep.Bounded {
		t.Error("empty-answer query should still be bounded")
	}
}

// TestSQLMatchesExecutedPlan: SQL translates the plan Execute runs under
// DefaultOptions, the minimized one, on every bounded template of the
// three datasets. SQL is asked on one engine and Execute on another over
// the same data, so neither reads the other's cached plan.
func TestSQLMatchesExecutedPlan(t *testing.T) {
	for _, d := range workload.All() {
		t.Run(d.Name, func(t *testing.T) {
			engines := [2]*Engine{}
			for i := range engines {
				db, err := d.Gen(0.02, 1)
				if err != nil {
					t.Fatal(err)
				}
				if engines[i], err = NewEngine(d.Schema, d.Access, db); err != nil {
					t.Fatal(err)
				}
			}
			bounded := 0
			for _, tmpl := range d.Templates() {
				q, err := parser.Parse(tmpl.Src, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				_, rep, err := engines[1].Execute(q, DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", tmpl.Name, err)
				}
				sql, err := engines[0].SQL(q)
				if !rep.Bounded {
					if err == nil {
						t.Errorf("%s: SQL for a query Execute does not bound", tmpl.Name)
					}
					continue
				}
				bounded++
				if err != nil {
					t.Fatalf("%s: %v", tmpl.Name, err)
				}
				want, err := sqlgen.ToSQL(rep.Plan)
				if err != nil {
					t.Fatal(err)
				}
				if sql != want {
					t.Errorf("%s: SQL differs from the executed plan's:\n%s\nvs\n%s", tmpl.Name, sql, want)
				}
			}
			if bounded == 0 {
				t.Fatal("no bounded template")
			}
		})
	}
}
