package minimize

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// wallQuery is one covered query of the minimizer wall.
type wallQuery struct {
	name string
	res  *cover.Result
}

// wallCorpus is the covered queries among every template of AIRCA, TFACC
// and MCBM, 120 random generator queries per dataset (60 under the default
// parameters, 60 under the Exp-2 ones), and the Facebook examples.
func wallCorpus(t *testing.T) []wallQuery {
	t.Helper()
	var out []wallQuery
	add := func(name string, q ra.Query, s ra.Schema, A *access.Schema) {
		res, err := cover.Check(q, s, A)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Covered {
			out = append(out, wallQuery{name, res})
		}
	}
	exp2 := workload.DefaultQueryParams()
	exp2.Sel, exp2.Join, exp2.UniDiff = 6, 3, 2
	perParams := 60
	if testing.Short() {
		perParams = 10
	}
	for _, d := range workload.All() {
		for _, tmpl := range d.Templates() {
			q, err := parser.Parse(tmpl.Src, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := ra.Normalize(q, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			add(d.Name+"/"+tmpl.Name, norm, d.Schema, d.Access)
		}
		for pi, params := range []workload.QueryParams{workload.DefaultQueryParams(), exp2} {
			rng := rand.New(rand.NewSource(int64(7 + pi)))
			for i := 0; i < perParams; i++ {
				q, err := d.RandomQuery(params, rng)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("%s/random%d-%d", d.Name, pi, i), q, d.Schema, d.Access)
			}
		}
	}
	fb := &workload.Facebook{Schema: workload.FacebookSchema(), Access: workload.FacebookAccess(), Me: value.NewInt(0)}
	for i, q := range []ra.Query{fb.Q0(), fb.Q1(), fb.Q2(), fb.Q3(), fb.Q0Prime()} {
		norm, err := ra.Normalize(q, fb.Schema)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("facebook/%d", i), norm, fb.Schema, fb.Access)
	}
	return out
}

func keyList(A *access.Schema) []string {
	out := make([]string, len(A.Constraints))
	for i, c := range A.Constraints {
		out[i] = c.Key()
	}
	return out
}

// maskOf is the mask over A of the constraints of sub, a subset of A.
func maskOf(A, sub *access.Schema) cover.Mask {
	in := keys(sub)
	m := cover.NewMask(A.Len())
	for i, c := range A.Constraints {
		if in[c.Key()] {
			m.Set(i)
		}
	}
	return m
}

// sameResult names the first exported field where got and want differ, or
// returns "". The Access schemas are compared by their constraints.
func sameResult(got, want *cover.Result) string {
	switch {
	case got.Query != want.Query:
		return "Query"
	case !reflect.DeepEqual(keyList(got.Access), keyList(want.Access)):
		return fmt.Sprintf("Access %v, want %v", keyList(got.Access), keyList(want.Access))
	case !reflect.DeepEqual(got.Act, want.Act):
		return "Act"
	case got.Covered != want.Covered || got.Fetchable != want.Fetchable || got.Indexed != want.Indexed:
		return "verdict"
	case len(got.Subs) != len(want.Subs):
		return "len(Subs)"
	}
	for i := range got.Subs {
		gv, wv := reflect.ValueOf(*got.Subs[i]), reflect.ValueOf(*want.Subs[i])
		for f := 0; f < gv.NumField(); f++ {
			if name := gv.Type().Field(f).Name; name == "SPC" || name == "Classes" {
				continue // built once per query by both sides
			}
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				return fmt.Sprintf("Subs[%d].%s", i, gv.Type().Field(f).Name)
			}
		}
	}
	if got.Covered {
		gp, gerr := plan.Build(got)
		wp, werr := plan.Build(want)
		if gerr != nil || werr != nil || gp.String() != wp.String() {
			return fmt.Sprintf("plan (errors %v, %v)", gerr, werr)
		}
	}
	return ""
}

func sameOutcome(got, want *access.Schema, gerr, werr error) string {
	if (gerr != nil) != (werr != nil) {
		return fmt.Sprintf("error %v, oracle %v", gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(keyList(got), keyList(want)) {
		return fmt.Sprintf("%v, oracle %v", keyList(got), keyList(want))
	}
	return ""
}

// elementary is A without its non-elementary constraints.
func elementary(A *access.Schema) *access.Schema {
	var cs []access.Constraint
	for _, c := range A.Constraints {
		if c.IsIndexing() || c.IsUnit() {
			cs = append(cs, c)
		}
	}
	return access.NewSchema(cs...)
}

// TestMinimizersMatchOracle is the minimizers' oracle wall. On every
// covered query of the corpus, Minimize, MinADAG and MinAE keep the
// oracle's constraints in the oracle's order, IsMinimal agrees, Minimize's
// Result equals a fresh check of the oracle's schema (and plans to the
// same plan), and on every schema the oracle MinA tries, the prepared
// Result and Covers equal a fresh check of that schema.
func TestMinimizersMatchOracle(t *testing.T) {
	trials, elem := 0, 0
	for _, wq := range wallCorpus(t) {
		res := wq.res
		p, _, err := res.Prepared()
		if err != nil {
			t.Fatal(err)
		}
		var visited []*access.Schema
		o := &oracle{visit: func(A *access.Schema) { visited = append(visited, A) }}
		want, werr := o.MinA(res, DefaultOptions())
		got, gerr := Minimize(res, DefaultOptions())
		var gotA *access.Schema
		if gerr == nil {
			gotA = got.Access
		}
		if d := sameOutcome(gotA, want, gerr, werr); d != "" {
			t.Fatalf("%s: Minimize keeps %s", wq.name, d)
		}
		if werr == nil {
			fresh, err := cover.Check(res.Query, res.Schema, want)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameResult(got, fresh); d != "" {
				t.Fatalf("%s: Minimize's Result differs from a check of its schema in %s", wq.name, d)
			}
			gm, gerr := IsMinimal(res.Query, res.Schema, gotA)
			wm, werr := o.IsMinimal(res.Query, res.Schema, want)
			if gm != wm || (gerr != nil) != (werr != nil) {
				t.Fatalf("%s: IsMinimal = %v, %v; oracle %v, %v", wq.name, gm, gerr, wm, werr)
			}
		}
		for _, S := range visited {
			fresh, err := cover.Check(res.Query, res.Schema, S)
			if err != nil {
				t.Fatal(err)
			}
			mask := maskOf(res.Access, S)
			if d := sameResult(p.Result(mask), fresh); d != "" {
				t.Fatalf("%s: trial %v: Result differs in %s", wq.name, keyList(S), d)
			}
			if covered, n := p.Covers(mask); covered != fresh.Covered || n != coveredCount(fresh) {
				t.Fatalf("%s: trial %v: Covers = (%v, %d), check (%v, %d)",
					wq.name, keyList(S), covered, n, fresh.Covered, coveredCount(fresh))
			}
			trials++
		}

		if IsAcyclic(res) {
			got, gerr := MinADAG(res)
			want, werr := o.MinADAG(res)
			if d := sameOutcome(got, want, gerr, werr); d != "" {
				t.Fatalf("%s: MinADAG keeps %s", wq.name, d)
			}
		}
		got2, gerr := MinAE(res)
		want2, werr := o.MinAE(res)
		if d := sameOutcome(got2, want2, gerr, werr); d != "" {
			t.Fatalf("%s: MinAE keeps %s", wq.name, d)
		}
		// The elementary part of A, where MinAE runs its Steiner search.
		if eres, err := cover.Check(res.Query, res.Schema, elementary(res.Access)); err == nil && eres.Covered {
			elem++
			got, gerr := MinAE(eres)
			want, werr := o.MinAE(eres)
			if d := sameOutcome(got, want, gerr, werr); d != "" {
				t.Fatalf("%s: MinAE on the elementary schema keeps %s", wq.name, d)
			}
		}
	}
	if trials == 0 || elem == 0 {
		t.Fatalf("vacuous wall: %d trials, %d elementary instances", trials, elem)
	}
	t.Logf("%d trial schemas, %d elementary instances", trials, elem)
}
