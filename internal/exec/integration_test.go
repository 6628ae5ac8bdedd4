package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/workload"
)

// TestExample1Pipeline drives the whole stack on the Graph Search scenario
// of Example 1: coverage analysis, plan generation, bounded execution, and
// agreement with the conventional evaluator.
func TestExample1Pipeline(t *testing.T) {
	fb, db, err := workload.GenFacebook(workload.DefaultFacebookConfig())
	if err != nil {
		t.Fatalf("GenFacebook: %v", err)
	}
	if err := db.SatisfiesAll(fb.Access); err != nil {
		t.Fatalf("generated data violates A0: %v", err)
	}

	cases := []struct {
		name    string
		q       ra.Query
		covered bool
	}{
		{"Q1", fb.Q1(), true},
		{"Q2", fb.Q2(), false},
		{"Q0", fb.Q0(), false},
		{"Q3", fb.Q3(), true},
		{"Q0Prime", fb.Q0Prime(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := ra.Normalize(tc.q, fb.Schema)
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			res, err := cover.Check(q, fb.Schema, fb.Access)
			if err != nil {
				t.Fatalf("cover.Check: %v", err)
			}
			if res.Covered != tc.covered {
				t.Fatalf("covered = %v, want %v\n%s", res.Covered, tc.covered, res.Explain())
			}
			if !tc.covered {
				return
			}
			p, err := plan.Build(res)
			if err != nil {
				t.Fatalf("plan.Build: %v", err)
			}
			if err := p.Validate(fb.Access); err != nil {
				t.Fatalf("plan invalid: %v\n%s", err, p)
			}
			got, st, err := exec.Run(p, db)
			if err != nil {
				t.Fatalf("exec.Run: %v\n%s", err, p)
			}
			want, bst, err := exec.RunBaseline(q, fb.Schema, db)
			if err != nil {
				t.Fatalf("exec.RunBaseline: %v", err)
			}
			if !got.Equal(want) {
				t.Fatalf("bounded answer differs from baseline:\nbounded (%d rows):\n%s\nbaseline (%d rows):\n%s\nplan:\n%s",
					got.Len(), got, want.Len(), want, p)
			}
			if st.Scanned != 0 {
				t.Errorf("bounded plan performed %d full-scan accesses", st.Scanned)
			}
			if bst.Scanned == 0 {
				t.Errorf("baseline performed no scans — not a fair baseline")
			}
			if st.Accessed >= bst.Accessed {
				t.Errorf("bounded plan accessed %d ≥ baseline %d tuples", st.Accessed, bst.Accessed)
			}
		})
	}
}

// TestQ0PrimeAgreesWithQ0 checks the A0-equivalence claim of Example 1:
// on data satisfying A0, Q0 and Q0Prime return the same answer, so the
// bounded plan for Q0Prime answers the non-covered Q0.
func TestQ0PrimeAgreesWithQ0(t *testing.T) {
	fb, db, err := workload.GenFacebook(workload.DefaultFacebookConfig())
	if err != nil {
		t.Fatalf("GenFacebook: %v", err)
	}
	q0, err := ra.Normalize(fb.Q0(), fb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	q0p, err := ra.Normalize(fb.Q0Prime(), fb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := exec.RunBaseline(q0, fb.Schema, db)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := exec.RunBaseline(q0p, fb.Schema, db)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("Q0 and Q0Prime disagree:\nQ0:\n%s\nQ0':\n%s", a, b)
	}
}

// TestBoundedAccessIndependentOfD grows the dataset and checks that the
// bounded plan's data access does not grow with |D| while the baseline's
// does — the defining property of bounded evaluability.
func TestBoundedAccessIndependentOfD(t *testing.T) {
	var boundedAccess [2]int64
	var baselineAccess [2]int64
	sizes := []int{300, 1200}
	for i, n := range sizes {
		cfg := workload.DefaultFacebookConfig()
		cfg.Persons = n
		cfg.Cafes = n / 2
		fb, db, err := workload.GenFacebook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ra.Normalize(fb.Q0Prime(), fb.Schema)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cover.Check(q, fb.Schema, fb.Access)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(res)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := exec.Run(p, db)
		if err != nil {
			t.Fatal(err)
		}
		_, bst, err := exec.RunBaseline(q, fb.Schema, db)
		if err != nil {
			t.Fatal(err)
		}
		boundedAccess[i] = st.Accessed
		baselineAccess[i] = bst.Accessed
	}
	if baselineAccess[1] < baselineAccess[0]*2 {
		t.Errorf("baseline access did not grow with |D|: %v", baselineAccess)
	}
	// The bounded plan depends on p0's neighbourhood only; allow slack for
	// p0 acquiring a few more friends in the larger population.
	if boundedAccess[1] > boundedAccess[0]*3 {
		t.Errorf("bounded access grew with |D|: %v", boundedAccess)
	}
}

// TestRunPropagatesStepErrors: a plan whose fetch step points at a
// constraint with no index must fail with an error naming that step, not
// panic or return a partial answer.
func TestRunPropagatesStepErrors(t *testing.T) {
	fb, db, err := workload.GenFacebook(workload.DefaultFacebookConfig())
	if err != nil {
		t.Fatal(err)
	}
	norm, err := ra.Normalize(fb.Q1(), fb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cover.Check(norm, fb.Schema, fb.Access)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: point the first fetch step at a constraint with no index.
	bad := -1
	for i := range p.Steps {
		if p.Steps[i].Op == plan.OpFetch {
			p.Steps[i].Con.N++
			p.Steps[i].Con.Rel = "friend"
			p.Steps[i].Con.X = nil
			p.Steps[i].Con.Y = []string{"pid"}
			p.Steps[i].XCols = p.Steps[i].XCols[:0]
			bad = i
			break
		}
	}
	if bad < 0 {
		t.Fatal("Q1's plan has no fetch step")
	}
	table, _, err := exec.Run(p, db)
	if err == nil {
		t.Fatalf("expected an error from the sabotaged plan, got %d rows", table.Len())
	}
	if want := fmt.Sprintf("exec: step T%d ", bad); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not name the failing step (want prefix %q)", err, want)
	}
}
