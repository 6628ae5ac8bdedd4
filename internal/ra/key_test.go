package ra_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/workload"
)

// keyCorpus is every template of the three datasets plus the random
// generator's queries, each with variants under occurrence renaming, atom
// shuffles (product leaves, selection atoms, equality sides) and union
// operand shuffles.
func keyCorpus(t *testing.T, d *workload.Dataset) []ra.Query {
	t.Helper()
	var corpus []ra.Query
	rng := rand.New(rand.NewSource(39))
	add := func(q ra.Query) {
		corpus = append(corpus, q)
		for v := 0; v < 3; v++ {
			corpus = append(corpus, shuffleAtoms(rng, renameOccs(rng, q)))
		}
	}
	for _, tmpl := range d.Templates() {
		q, err := parser.Parse(tmpl.Src, d.Schema)
		if err != nil {
			t.Fatalf("%s: %v", tmpl.Name, err)
		}
		add(q)
	}
	params := workload.DefaultQueryParams()
	for i := 0; i < 120; i++ {
		params.Sel = 1 + rng.Intn(6)
		params.Join = rng.Intn(5)
		params.UniDiff = rng.Intn(3)
		params.OutArity = 1 + rng.Intn(2)
		q, err := d.RandomQuery(params, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(q)
	}
	return corpus
}

// renameOccs gives every relation occurrence a fresh name, consistently
// in every atom and projection that refers to it.
func renameOccs(rng *rand.Rand, q ra.Query) ra.Query {
	ren := map[string]string{}
	for _, r := range ra.Relations(q) {
		ren[r.Name] = fmt.Sprintf("o%d_%d", rng.Intn(1000), len(ren))
	}
	attr := func(a ra.Attr) ra.Attr {
		if n, ok := ren[a.Rel]; ok {
			a.Rel = n
		}
		return a
	}
	var walk func(ra.Query) ra.Query
	walk = func(q ra.Query) ra.Query {
		switch t := q.(type) {
		case *ra.Relation:
			return ra.R(t.Base, ren[t.Name])
		case *ra.Select:
			preds := make([]ra.Pred, len(t.Preds))
			for i, p := range t.Preds {
				switch p := p.(type) {
				case ra.EqAttr:
					preds[i] = ra.Eq(attr(p.L), attr(p.R))
				case ra.EqConst:
					preds[i] = ra.EqC(attr(p.A), p.C)
				}
			}
			return &ra.Select{In: walk(t.In), Preds: preds}
		case *ra.Project:
			attrs := make([]ra.Attr, len(t.Attrs))
			for i, a := range t.Attrs {
				attrs[i] = attr(a)
			}
			return &ra.Project{In: walk(t.In), Attrs: attrs}
		case *ra.Product:
			return &ra.Product{L: walk(t.L), R: walk(t.R)}
		case *ra.Union:
			return &ra.Union{L: walk(t.L), R: walk(t.R)}
		case *ra.Diff:
			return &ra.Diff{L: walk(t.L), R: walk(t.R)}
		}
		panic("unknown node")
	}
	return walk(q)
}

// shuffleAtoms permutes the commutative structure the canonical form must
// see through: product leaves under a projection, selection atoms and the
// sides of attribute equalities, and union operands.
func shuffleAtoms(rng *rand.Rand, q ra.Query) ra.Query {
	var walk func(q ra.Query, sortable bool) ra.Query
	leaves := func(q ra.Query, union bool) []ra.Query {
		var out []ra.Query
		var flat func(ra.Query)
		flat = func(q ra.Query) {
			if p, ok := q.(*ra.Product); ok && !union {
				flat(p.L)
				flat(p.R)
				return
			}
			if u, ok := q.(*ra.Union); ok && union {
				flat(u.L)
				flat(u.R)
				return
			}
			out = append(out, q)
		}
		flat(q)
		return out
	}
	walk = func(q ra.Query, sortable bool) ra.Query {
		switch t := q.(type) {
		case *ra.Relation:
			return t
		case *ra.Select:
			preds := append([]ra.Pred(nil), t.Preds...)
			rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
			for i, p := range preds {
				if e, ok := p.(ra.EqAttr); ok && rng.Intn(2) == 0 {
					preds[i] = ra.Eq(e.R, e.L)
				}
			}
			return &ra.Select{In: walk(t.In, sortable), Preds: preds}
		case *ra.Project:
			return &ra.Project{In: walk(t.In, true), Attrs: t.Attrs}
		case *ra.Product:
			ls := leaves(t, false)
			for i := range ls {
				ls[i] = walk(ls[i], sortable)
			}
			if sortable {
				rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
			}
			return ra.Prod(ls...)
		case *ra.Union:
			ls := leaves(t, true)
			for i := range ls {
				ls[i] = walk(ls[i], false)
			}
			rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
			out := ls[0]
			for _, l := range ls[1:] {
				out = ra.U(out, l)
			}
			return out
		case *ra.Diff:
			return ra.D(walk(t.L, false), walk(t.R, false))
		}
		panic("unknown node")
	}
	return walk(q, false)
}

// TestKeyOfMatchesOracle is the equivalence wall for the canonical key:
// over every template of the three datasets and the random generator's
// queries under renaming and shuffles, two queries share a KeyOf exactly
// when they share the string oracle's fingerprint — no new plan-cache
// misses and no new false hits. It also pins KeyOf to the tree Canonical
// builds (the key is the SHA-256 of that tree's serialization) and
// Canonical's fixpoint property.
func TestKeyOfMatchesOracle(t *testing.T) {
	for _, d := range workload.All() {
		t.Run(d.Name, func(t *testing.T) {
			corpus := keyCorpus(t, d)
			byKey := map[ra.Key]string{}
			byOracle := map[string]ra.Key{}
			for i, q := range corpus {
				norm, err := ra.Normalize(q, d.Schema)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				k := ra.KeyOf(norm)
				o := ra.OracleFingerprintNormalized(norm)
				if prev, ok := byKey[k]; ok && prev != o {
					t.Fatalf("false hit: query %d keys with a query the oracle separates\n%s", i, q)
				}
				if prev, ok := byOracle[o]; ok && prev != k {
					t.Fatalf("new miss: query %d keys apart from an oracle-equal query\n%s", i, q)
				}
				byKey[k], byOracle[o] = o, k

				canon, err := ra.Canonical(q, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if got := ra.Key(sha256.Sum256([]byte(ra.OracleSerialize(canon)))); got != k {
					t.Fatalf("query %d: KeyOf is not the digest of the Canonical tree %s", i, ra.OracleSerialize(canon))
				}
				again, err := ra.Canonical(canon, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if ra.OracleSerialize(again) != ra.OracleSerialize(canon) {
					t.Fatalf("query %d: Canonical is not a fixpoint:\n%s\n%s", i,
						ra.OracleSerialize(canon), ra.OracleSerialize(again))
				}
			}
			if len(byKey) >= len(corpus) {
				t.Fatalf("no two of %d corpus queries share a key: the variants exercise nothing", len(corpus))
			}
			t.Logf("%d queries, %d distinct keys", len(corpus), len(byKey))
		})
	}
}

// TestCanonicalPreservesAnswers evaluates every corpus query of AIRCA and
// its canonical form with the conventional evaluator on a small instance:
// canonicalization must not change an answer.
func TestCanonicalPreservesAnswers(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	for i, q := range keyCorpus(t, d) {
		if len(ra.Relations(q)) > 4 {
			continue // the conventional evaluator materializes products
		}
		evaluated++
		canon, err := ra.Canonical(q, d.Schema)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := ra.Normalize(q, d.Schema)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := exec.RunBaseline(norm, d.Schema, db)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got, _, err := exec.RunBaseline(canon, d.Schema, db)
		if err != nil {
			t.Fatalf("canonical of query %d: %v", i, err)
		}
		if !want.Equal(got) {
			t.Fatalf("query %d: canonicalization changed the answer\n%s\n%s", i, q, canon)
		}
	}
	if evaluated < 100 {
		t.Fatalf("only %d corpus queries evaluated", evaluated)
	}
}

// TestKeyOfMatchesOracleSelfJoins runs the equivalence wall on the shapes
// where colour refinement ties: random rules over few variables whose
// atoms mostly repeat one relation (self-joins, cycles, repeated
// variables), some under UNION. Many of them are equal up to renaming, so
// the check exercises both directions of the equivalence.
func TestKeyOfMatchesOracleSelfJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"x", "y", "z", "w", "1", "2"}
	rule := func() string {
		src := "q(x) :- "
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if i > 0 {
				src += ", "
			}
			rel := "r"
			if rng.Intn(4) == 0 {
				rel = []string{"s", "t"}[rng.Intn(2)]
			}
			src += fmt.Sprintf("%s(%s, %s)", rel, vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		return src
	}
	byKey := map[ra.Key]string{}
	byOracle := map[string]ra.Key{}
	checked := 0
	for i := 0; i < 3000; i++ {
		src := rule()
		if rng.Intn(4) == 0 {
			src = "(" + src + ") UNION (" + rule() + ")"
		}
		q, err := parser.Parse(src, fuzzSchema)
		if err != nil {
			continue // the head variable must occur in the body
		}
		checked++
		norm, err := ra.Normalize(q, fuzzSchema)
		if err != nil {
			t.Fatal(err)
		}
		k, o := ra.KeyOf(norm), ra.OracleFingerprintNormalized(norm)
		if prev, ok := byKey[k]; ok && prev != o {
			t.Fatalf("false hit on %q", src)
		}
		if prev, ok := byOracle[o]; ok && prev != k {
			t.Fatalf("new miss on %q", src)
		}
		byKey[k], byOracle[o] = o, k
	}
	if checked < 1000 || len(byKey) > checked*9/10 {
		t.Fatalf("%d rules parsed, %d distinct keys: the generator exercises too little", checked, len(byKey))
	}
	t.Logf("%d rules, %d distinct keys", checked, len(byKey))
}
