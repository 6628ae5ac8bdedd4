package cover_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// corpusQuery is one normalized query of the oracle walls.
type corpusQuery struct {
	name string
	q    ra.Query
	s    ra.Schema
	A    *access.Schema
}

// exp2Params are the random generator's parameters of the Exp-2 fixture
// (bench_test.go): more selections, joins and set operators.
func exp2Params() workload.QueryParams {
	p := workload.DefaultQueryParams()
	p.Sel, p.Join, p.UniDiff = 6, 3, 2
	return p
}

// oracleCorpus is every template of AIRCA, TFACC and MCBM, perRandom
// random generator queries per dataset (half under the default parameters,
// half under the Exp-2 ones), and the Facebook examples.
func oracleCorpus(t testing.TB, perRandom int) []corpusQuery {
	t.Helper()
	var out []corpusQuery
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
			out = append(out, corpusQuery{d.Name + "/" + tmpl.Name, norm, d.Schema, d.Access})
		}
		for pi, params := range []workload.QueryParams{workload.DefaultQueryParams(), exp2Params()} {
			rng := rand.New(rand.NewSource(int64(42 + pi)))
			for i := 0; i < perRandom/2; i++ {
				q, err := d.RandomQuery(params, rng)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, corpusQuery{fmt.Sprintf("%s/random%d-%d", d.Name, pi, i), q, d.Schema, d.Access})
			}
		}
	}
	fb := &workload.Facebook{Schema: workload.FacebookSchema(), Access: workload.FacebookAccess(), Me: value.NewInt(0)}
	for i, q := range []ra.Query{fb.Q0(), fb.Q1(), fb.Q2(), fb.Q3(), fb.Q0Prime()} {
		norm, err := ra.Normalize(q, fb.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusQuery{fmt.Sprintf("facebook/%d", i), norm, fb.Schema, fb.Access})
	}
	return out
}

// subset is A restricted to mask, the way the oracle sees it.
func subset(A *access.Schema, mask cover.Mask) *access.Schema {
	keys := map[string]bool{}
	for i, c := range A.Constraints {
		if mask.Has(i) {
			keys[c.Key()] = true
		}
	}
	return A.Subset(keys)
}

// diffResults names the first exported field where got and want differ,
// or returns "". Unless deep is set it skips the fields that do not depend
// on the subset of A (each sub-query's SPC and Classes), which a caller
// compares once per query.
func diffResults(got, want *cover.Result, deep bool) string {
	switch {
	case got.Query != want.Query:
		return "Query"
	case !reflect.DeepEqual(got.Schema, want.Schema):
		return "Schema"
	case !reflect.DeepEqual(got.Access.Constraints, want.Access.Constraints):
		return fmt.Sprintf("Access: got\n%s\nwant\n%s", got.Access, want.Access)
	case !reflect.DeepEqual(got.Act, want.Act):
		return "Act"
	case got.Covered != want.Covered || got.Fetchable != want.Fetchable || got.Indexed != want.Indexed:
		return fmt.Sprintf("verdict: got %v/%v/%v want %v/%v/%v",
			got.Covered, got.Fetchable, got.Indexed, want.Covered, want.Fetchable, want.Indexed)
	case len(got.Subs) != len(want.Subs):
		return "len(Subs)"
	}
	for i := range got.Subs {
		g, w := got.Subs[i], want.Subs[i]
		gv, wv := reflect.ValueOf(*g), reflect.ValueOf(*w)
		for f := 0; f < gv.NumField(); f++ {
			if name := gv.Type().Field(f).Name; !deep && (name == "SPC" || name == "Classes") {
				continue
			}
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				return fmt.Sprintf("Subs[%d].%s: got %v want %v", i, gv.Type().Field(f).Name,
					gv.Field(f).Interface(), wv.Field(f).Interface())
			}
		}
	}
	return ""
}

// coveredCount is |cov(Q,A)| summed over the sub-queries.
func coveredCount(res *cover.Result) int {
	n := 0
	for _, sub := range res.Subs {
		n += len(sub.Cov.Order)
	}
	return n
}

// checkMask holds Prepared.Result(mask) and Covers(mask) to the oracle's
// check of A restricted to mask, and the plans built from both to each
// other.
func checkMask(t *testing.T, cq corpusQuery, p *cover.Prepared, mask cover.Mask) *cover.Result {
	t.Helper()
	want, err := cover.OracleCheck(cq.q, cq.s, subset(cq.A, mask))
	if err != nil {
		t.Fatalf("%s: oracle: %v", cq.name, err)
	}
	got := p.Result(mask)
	if d := diffResults(got, want, false); d != "" {
		t.Fatalf("%s: mask %x: Result differs from the oracle in %s", cq.name, mask, d)
	}
	if covered, n := p.Covers(mask); covered != want.Covered || n != coveredCount(want) {
		t.Fatalf("%s: mask %x: Covers = (%v, %d), oracle (%v, %d)",
			cq.name, mask, covered, n, want.Covered, coveredCount(want))
	}
	if want.Covered {
		gp, err := plan.Build(got)
		if err != nil {
			t.Fatalf("%s: %v", cq.name, err)
		}
		wp, err := plan.Build(want)
		if err != nil {
			t.Fatalf("%s: %v", cq.name, err)
		}
		if gp.String() != wp.String() {
			t.Fatalf("%s: mask %x: plans differ:\n%s\nvs oracle\n%s", cq.name, mask, gp, wp)
		}
	}
	return got
}

// relevant lists the constraints on a relation the query mentions: the
// only ones whose removal can change a verdict.
func relevant(q ra.Query, A *access.Schema) []int {
	bases := map[string]bool{}
	for _, r := range ra.Relations(q) {
		bases[r.Base] = true
	}
	var out []int
	for i, c := range A.Constraints {
		if bases[c.Rel] {
			out = append(out, i)
		}
	}
	return out
}

// TestPreparedMatchesOracle is the oracle wall of the prepared check. Over
// the corpus, the prepared Result and Covers equal the one-pass oracle on
// the full schema, on every single-constraint removal, and on every trial
// of a greedy removal walk over the relevant constraints (the kind of
// subset the minimizers try), and the plans built from them are identical.
// The minimize package's wall adds every subset MinA itself visits.
func TestPreparedMatchesOracle(t *testing.T) {
	perRandom := 120
	if testing.Short() || raceEnabled {
		perRandom = 20
	}
	for _, cq := range oracleCorpus(t, perRandom) {
		want, err := cover.OracleCheck(cq.q, cq.s, cq.A)
		if err != nil {
			t.Fatalf("%s: %v", cq.name, err)
		}
		got, err := cover.Check(cq.q, cq.s, cq.A)
		if err != nil {
			t.Fatalf("%s: %v", cq.name, err)
		}
		if d := diffResults(got, want, true); d != "" {
			t.Fatalf("%s: Check differs from the oracle in %s", cq.name, d)
		}
		p, err := cover.Prepare(cq.q, cq.s, cq.A)
		if err != nil {
			t.Fatal(err)
		}
		n := cq.A.Len()
		if !checkMask(t, cq, p, cover.FullMask(n)).Covered {
			// Removing constraints never covers a query (monotonicity);
			// one removal stands for the rest.
			m := cover.FullMask(n)
			m.Clear(n - 1)
			checkMask(t, cq, p, m)
			continue
		}
		rel := relevant(cq.q, cq.A)
		for _, i := range rel {
			m := cover.FullMask(n)
			m.Clear(i)
			checkMask(t, cq, p, m)
		}
		if strings.Contains(cq.name, "/random") {
			continue
		}
		// Greedy walk over a template: from the relevant constraints, drop
		// the first removable one while one exists, checking every trial.
		cur := cover.NewMask(n)
		for _, i := range rel {
			cur.Set(i)
		}
		for checkMask(t, cq, p, cur).Covered {
			next := -1
			for _, i := range rel {
				if !cur.Has(i) {
					continue
				}
				trial := cur.Clone()
				trial.Clear(i)
				if checkMask(t, cq, p, trial).Covered && next < 0 {
					next = i
				}
			}
			if next < 0 {
				break
			}
			cur.Clear(next)
		}
	}
}

// TestPrepareErrors: Prepare and Check fail where the oracle fails.
func TestPrepareErrors(t *testing.T) {
	d := workload.Airca()
	bad := ra.Proj(ra.R("nosuch", "n"), ra.A("n", "x"))
	_, oerr := cover.OracleCheck(bad, d.Schema, d.Access)
	_, perr := cover.Prepare(bad, d.Schema, d.Access)
	_, cerr := cover.Check(bad, d.Schema, d.Access)
	if oerr == nil || perr == nil || cerr == nil {
		t.Fatalf("invalid query accepted: oracle %v, Prepare %v, Check %v", oerr, perr, cerr)
	}
	if perr.Error() != oerr.Error() || cerr.Error() != oerr.Error() {
		t.Fatalf("errors differ: oracle %q, Prepare %q, Check %q", oerr, perr, cerr)
	}
}

// TestMaskWords: masks of more than 64 constraints keep every bit apart.
func TestMaskWords(t *testing.T) {
	m := cover.FullMask(130)
	if m.Count() != 130 || len(m) != 3 {
		t.Fatalf("FullMask(130): %d bits in %d words", m.Count(), len(m))
	}
	m.Clear(64)
	m.Clear(129)
	if m.Has(64) || m.Has(129) || !m.Has(63) || !m.Has(128) || m.Count() != 128 {
		t.Fatalf("Clear crossed words: %x", m)
	}
	if e := cover.NewMask(64); len(e) != 1 || e.Count() != 0 {
		t.Fatalf("NewMask(64) = %x", e)
	}
	if f := cover.FullMask(64); f.Count() != 64 || len(f) != 1 {
		t.Fatalf("FullMask(64) = %x", f)
	}
}

// FuzzPreparedCheck holds the prepared check to the oracle on a random
// generator query of a dataset under a random subset of its constraints:
// Result equals the oracle field for field and Covers agrees with it.
func FuzzPreparedCheck(f *testing.F) {
	f.Add(int64(1), uint64(0xffffffffffffffff), uint8(0))
	f.Add(int64(7), uint64(0x5555555555555555), uint8(1))
	f.Add(int64(2016), uint64(0xf0f0f0f0f0f0f0f0), uint8(2))
	f.Add(int64(3), uint64(0), uint8(2))
	datasets := workload.All()
	f.Fuzz(func(t *testing.T, seed int64, bits uint64, which uint8) {
		d := datasets[int(which)%len(datasets)]
		rng := rand.New(rand.NewSource(seed))
		params := workload.DefaultQueryParams()
		params.Sel = 2 + rng.Intn(8)
		params.Join = rng.Intn(5)
		params.UniDiff = rng.Intn(4)
		q, err := d.RandomQuery(params, rng)
		if err != nil {
			t.Skip(err)
		}
		p, err := cover.Prepare(q, d.Schema, d.Access)
		if err != nil {
			t.Fatal(err)
		}
		// Spread the 64 fuzzed bits over the schema: constraint i takes
		// bit i mod 64 rotated by its word, so masks past 64 constraints
		// are not copies of the first word.
		mask := cover.NewMask(d.Access.Len())
		for i := 0; i < d.Access.Len(); i++ {
			if bits>>((i+i/64)%64)&1 == 1 {
				mask.Set(i)
			}
		}
		checkMask(t, corpusQuery{"fuzz", q, d.Schema, d.Access}, p, mask)
	})
}
