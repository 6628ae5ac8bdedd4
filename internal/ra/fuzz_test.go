package ra_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

var fuzzSchema = ra.Schema{
	"r": {"a", "b"},
	"s": {"b", "c"},
	"t": {"a", "c"},
}

// fuzzDB is a tiny instance with overlapping values so joins, selections
// and differences all produce non-trivial answers.
func fuzzDB() *store.DB {
	db := store.NewDB(fuzzSchema)
	ins := func(rel string, rows ...[2]int64) {
		for _, r := range rows {
			if _, err := db.Insert(rel, value.Tuple{value.NewInt(r[0]), value.NewInt(r[1])}); err != nil {
				panic(err)
			}
		}
	}
	ins("r", [2]int64{1, 1}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1}, [2]int64{-3, 7})
	ins("s", [2]int64{1, 2}, [2]int64{2, 2}, [2]int64{3, 4}, [2]int64{7, 1})
	ins("t", [2]int64{1, 2}, [2]int64{2, 4}, [2]int64{3, 3})
	return db
}

// FuzzNormalize checks, for every pair of parseable queries:
//   - the two share a key exactly when they share the string oracle's
//     fingerprint,
//   - Canonical is idempotent and fingerprint-preserving,
//   - canonicalization preserves semantics (the canonical query evaluates
//     to the same answer as the original on a concrete instance),
//   - fingerprint-equal queries evaluate to equal results — the soundness
//     property the plan cache rests on.
func FuzzNormalize(f *testing.F) {
	seeds := [][2]string{
		{`q(x) :- r(x, y), s(y, z)`, `q(p) :- s(w, z2), r(p, w)`},
		{`q(a) :- r(a, 7)`, `q(b) :- r(b, 7)`},
		{`q(x) :- r(x, y), s(y, 2)`, `q(x) :- r(x, y), s(y, 3)`},
		{`(q(c) :- r(c, 1)) UNION (q(c) :- s(c, 2))`, `(q(c) :- s(c, 2)) UNION (q(c) :- r(c, 1))`},
		{`(q(c) :- r(c, 1)) EXCEPT (q(c) :- s(c, 2))`, `(q(c) :- s(c, 2)) EXCEPT (q(c) :- r(c, 1))`},
		{`q(x, z) :- r(x, y), s(y, z), t(x, z)`, `q(x, z) :- t(x, z), s(y, z), r(x, y)`},
		{`q(y) :- r(1, y)`, `q(y) :- r(y, 1)`},
		{`q(x) :- r(x, b), r(b, x)`, `q(x) :- r(b, x), r(x, b)`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, src1, src2 string) {
		q1, err := parser.Parse(src1, fuzzSchema)
		if err != nil {
			return
		}
		checkCanonical(t, q1, db, src1)

		q2, err := parser.Parse(src2, fuzzSchema)
		if err != nil {
			return
		}
		fp1, err1 := ra.Fingerprint(q1, fuzzSchema)
		fp2, err2 := ra.Fingerprint(q2, fuzzSchema)
		if err1 != nil || err2 != nil {
			t.Fatalf("fingerprint errors: %v / %v", err1, err2)
		}
		// The key partitions queries exactly as the string oracle does: no
		// new cache misses, no new false hits.
		o1, _ := ra.OracleFingerprint(q1, fuzzSchema)
		o2, _ := ra.OracleFingerprint(q2, fuzzSchema)
		if (fp1 == fp2) != (o1 == o2) {
			t.Fatalf("key equality %v but oracle equality %v:\nq1: %q\nq2: %q", fp1 == fp2, o1 == o2, src1, src2)
		}
		if fp1 != fp2 {
			return
		}
		// Equal fingerprints promise equal answers.
		t1, ok1 := evalSmall(t, q1, db)
		t2, ok2 := evalSmall(t, q2, db)
		if !ok1 || !ok2 {
			return
		}
		if !t1.Equal(t2) {
			t.Fatalf("fingerprint-equal queries disagree:\nq1: %q -> %s\nq2: %q -> %s",
				src1, t1.String(), src2, t2.String())
		}
	})
}

func checkCanonical(t *testing.T, q ra.Query, db *store.DB, src string) {
	t.Helper()
	c1, err := ra.Canonical(q, fuzzSchema)
	if err != nil {
		t.Fatalf("canonical of accepted query errored: %v (src %q)", err, src)
	}
	c2, err := ra.Canonical(c1, fuzzSchema)
	if err != nil {
		t.Fatalf("re-canonicalization errored: %v (src %q)", err, src)
	}
	fq, err := ra.Fingerprint(q, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ra.Fingerprint(c1, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ra.Fingerprint(c2, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	if fq != f1 || f1 != f2 {
		t.Fatalf("canonicalization not idempotent/stable for %q: %s %s %s", src, fq, f1, f2)
	}
	// Canonicalization preserves semantics on a concrete instance.
	orig, ok1 := evalSmall(t, q, db)
	canon, ok2 := evalSmall(t, c1, db)
	if ok1 != ok2 {
		t.Fatalf("canonical query evaluability differs for %q", src)
	}
	if ok1 && !orig.Equal(canon) {
		t.Fatalf("canonicalization changed the answer of %q:\norig: %s\ncanon: %s",
			src, orig.String(), canon.String())
	}
}

// evalSmall evaluates q with the conventional evaluator, skipping queries
// whose product width would make the baseline explode (the fuzzer can
// stack many atoms; 6 relation occurrences over 5-row tables is plenty).
func evalSmall(t *testing.T, q ra.Query, db *store.DB) (*exec.Table, bool) {
	t.Helper()
	if len(ra.Relations(q)) > 6 {
		return nil, false
	}
	norm, err := ra.Normalize(q, fuzzSchema)
	if err != nil {
		t.Fatalf("normalize of accepted query: %v", err)
	}
	table, _, err := exec.RunBaseline(norm, fuzzSchema, db)
	if err != nil {
		t.Fatalf("baseline evaluation failed: %v", err)
	}
	return table, true
}
