package exec_test

import (
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/workload"
)

// TestDifferentialRandomQueries is the repository's strongest correctness
// check: on every benchmark dataset, for dozens of randomly generated RA
// queries that are covered, the bounded plan (evalQP) must return exactly
// the conventional evaluator's answer (evalDBMS) while performing zero full
// scans and strictly fewer accesses.
func TestDifferentialRandomQueries(t *testing.T) {
	for _, d := range workload.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			db, err := d.Gen(1.0/16, 11)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			params := workload.DefaultQueryParams()
			covered, executed := 0, 0
			for i := 0; i < 80; i++ {
				params.Sel = 3 + rng.Intn(6)
				params.Join = rng.Intn(4)
				params.UniDiff = rng.Intn(3)
				q, err := d.RandomQuery(params, rng)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				res, err := cover.Check(q, d.Schema, d.Access)
				if err != nil {
					t.Fatalf("query %d check: %v", i, err)
				}
				if !res.Covered {
					continue
				}
				covered++
				p, err := plan.Build(res)
				if err != nil {
					t.Fatalf("query %d plan: %v\n%s", i, err, q)
				}
				if err := p.Validate(d.Access); err != nil {
					t.Fatalf("query %d invalid plan: %v", i, err)
				}
				got, st, err := exec.Run(p, db)
				if err != nil {
					t.Fatalf("query %d run: %v\nquery: %s\nplan:\n%s", i, err, q, p)
				}
				want, _, err := exec.RunBaseline(q, d.Schema, db)
				if err != nil {
					t.Fatalf("query %d baseline: %v", i, err)
				}
				if !got.Equal(want) {
					t.Fatalf("query %d answers differ (seed-reproducible)\nquery: %s\nbounded %d rows, baseline %d rows\n%s\nplan:\n%s",
						i, q, got.Len(), want.Len(), rowDiff(got, want), p)
				}
				if st.Scanned != 0 {
					t.Errorf("query %d: bounded plan scanned %d tuples", i, st.Scanned)
				}
				executed++
			}
			if covered < 10 {
				t.Errorf("only %d covered queries in the sample — differential test underpowered", covered)
			}
			t.Logf("%s: %d covered queries validated differentially", d.Name, executed)
		})
	}
}

// TestDifferentialFacebookSizes runs the Example 1 covered queries through
// the differential check at several dataset sizes, confirming correctness
// is scale-independent.
func TestDifferentialFacebookSizes(t *testing.T) {
	for _, persons := range []int{40, 160, 640} {
		cfg := workload.DefaultFacebookConfig()
		cfg.Persons = persons
		cfg.Cafes = persons/2 + 1
		cfg.Seed = int64(persons)
		fb, db, err := workload.GenFacebook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range map[string]ra.Query{
			"Q1":      fb.Q1(),
			"Q3":      fb.Q3(),
			"Q0Prime": fb.Q0Prime(),
		} {
			norm, err := ra.Normalize(q, fb.Schema)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, persons, err)
			}
			res, err := cover.Check(norm, fb.Schema, fb.Access)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, persons, err)
			}
			p, err := plan.Build(res)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, persons, err)
			}
			got, _, err := exec.Run(p, db)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, persons, err)
			}
			want, _, err := exec.RunBaseline(norm, fb.Schema, db)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, persons, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s@%d: bounded and baseline answers differ", name, persons)
			}
		}
	}
}
