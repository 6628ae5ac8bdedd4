package ivm

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// testSchema is a tiny three-relation schema whose shapes cover every
// delta rule: r and u are union/diff-compatible, r joins s on c.
func testSchema() ra.Schema {
	return ra.Schema{
		"r": {"a", "b", "c"},
		"s": {"c", "d"},
		"u": {"a", "b", "c"},
	}
}

// Materialize is Build followed by Seed: what the engine does around its
// fence, for tests that have no concurrent writers to exclude.
func Materialize(norm ra.Query, s ra.Schema, db *store.DB, cols []string, maxRows int) (*View, error) {
	v, err := Build(norm, s, cols, maxRows)
	if err != nil {
		return nil, err
	}
	if err := v.Seed(db); err != nil {
		return nil, err
	}
	return v, nil
}

func seedDB(t *testing.T, s ra.Schema, rows map[string][]value.Tuple) *store.DB {
	t.Helper()
	db := store.NewDB(s)
	for rel, ts := range rows {
		for _, tu := range ts {
			if _, err := db.Insert(rel, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func tup(vals ...int64) value.Tuple {
	t := make(value.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.NewInt(v)
	}
	return t
}

// checkView materializes q over db, then replays ops one at a time —
// store first, then the view's delta path — and requires the published
// answer to equal a fresh re-execution of the query after every single
// op. Ops that do not change the store are not dispatched, matching the
// engine's contract with View.Apply.
func checkView(t *testing.T, s ra.Schema, db *store.DB, q ra.Query, ops []store.TupleOp) {
	t.Helper()
	norm, err := ra.Normalize(q, s)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	v, err := Materialize(norm, s, db, nil, 0)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	want, _, err := exec.RunBaseline(norm, s, db)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !v.Published().Equal(want) {
		t.Fatalf("initial materialization differs from baseline:\nview: %s\nwant: %s",
			v.Published().String(), want.String())
	}
	for i, op := range ops {
		var changed bool
		if op.Del {
			changed, err = db.Delete(op.Rel, op.T)
		} else {
			changed, err = db.Insert(op.Rel, op.T)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !changed {
			continue
		}
		if err := v.Apply(op); err != nil {
			t.Fatalf("op %d (%+v): apply: %v", i, op, err)
		}
		want, _, err := exec.RunBaseline(norm, s, db)
		if err != nil {
			t.Fatalf("op %d: baseline: %v", i, err)
		}
		if !v.Published().Equal(want) {
			t.Fatalf("op %d (%+v): maintained answer diverged\nview: %s\nwant: %s",
				i, op, v.Published().String(), want.String())
		}
	}
}

func TestViewSelect(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(2, 10, 200), tup(3, 20, 300)},
	})
	q := ra.Proj(
		ra.Sel(ra.R("r", "r1"), ra.EqC(ra.A("r1", "b"), value.NewInt(10))),
		ra.A("r1", "a"), ra.A("r1", "c"),
	)
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "r", T: tup(4, 10, 400)},            // enters the selection
		{Rel: "r", T: tup(5, 99, 500)},            // filtered out
		{Rel: "r", T: tup(1, 10, 100), Del: true}, // leaves the answer
		{Rel: "r", T: tup(3, 20, 300), Del: true}, // was never in it
	})
}

func TestViewProjectCounts(t *testing.T) {
	// Two source rows project to the same answer row: deleting one must
	// keep the row (count 2 → 1), deleting both must drop it.
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(1, 20, 200)},
	})
	q := ra.Proj(ra.R("r", "r1"), ra.A("r1", "a"))
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "r", T: tup(1, 10, 100), Del: true}, // count 2 → 1: row stays
		{Rel: "r", T: tup(1, 20, 200), Del: true}, // count 1 → 0: row drops
		{Rel: "r", T: tup(1, 30, 300)},            // row returns
	})
}

func TestViewJoin(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(2, 20, 200)},
		"s": {tup(100, 7), tup(300, 9)},
	})
	q := ra.Proj(
		ra.Join(ra.R("r", "r1"), ra.R("s", "s1"),
			ra.Eq(ra.A("r1", "c"), ra.A("s1", "c"))),
		ra.A("r1", "a"), ra.A("s1", "d"),
	)
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "s", T: tup(200, 8)},                // completes a dangling r row
		{Rel: "r", T: tup(3, 30, 300)},            // completes a dangling s row
		{Rel: "s", T: tup(100, 7), Del: true},     // kills the first join result
		{Rel: "r", T: tup(3, 30, 300), Del: true}, // kills the later one
		{Rel: "r", T: tup(4, 40, 200)},            // second match on s(200,8)
	})
}

func TestViewSelfJoin(t *testing.T) {
	// r joined with itself on c: one base write feeds both occurrences,
	// exercising the sequential chain rule across leaves.
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(2, 20, 100), tup(3, 30, 300)},
	})
	q := ra.Proj(
		ra.Join(ra.R("r", "r1"), ra.R("r", "r2"),
			ra.Eq(ra.A("r1", "c"), ra.A("r2", "c"))),
		ra.A("r1", "a"), ra.A("r2", "a"),
	)
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "r", T: tup(4, 40, 100)},            // pairs with two existing rows and itself
		{Rel: "r", T: tup(1, 10, 100), Del: true}, // removes its whole pair row/column
		{Rel: "r", T: tup(3, 30, 300), Del: true}, // the lone self-pair goes
	})
}

func TestViewUnion(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100)},
		"u": {tup(1, 10, 100), tup(2, 20, 200)},
	})
	q := ra.U(
		ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")),
		ra.Proj(ra.R("u", "u1"), ra.A("u1", "a")),
	)
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "u", T: tup(1, 10, 100), Del: true}, // still derived from r
		{Rel: "r", T: tup(1, 10, 100), Del: true}, // now it drops
		{Rel: "u", T: tup(3, 30, 300)},
		{Rel: "r", T: tup(3, 99, 99)}, // duplicate answer value via the other arm
	})
}

func TestViewDiff(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(2, 20, 200)},
		"u": {tup(2, 99, 99)},
	})
	q := ra.D(
		ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")),
		ra.Proj(ra.R("u", "u1"), ra.A("u1", "a")),
	)
	checkView(t, s, db, q, []store.TupleOp{
		{Rel: "u", T: tup(1, 5, 5)},               // right side gains 1: answer loses it
		{Rel: "u", T: tup(1, 5, 5), Del: true},    // membership flips back
		{Rel: "u", T: tup(2, 99, 99), Del: true},  // 2 re-enters the answer
		{Rel: "r", T: tup(2, 20, 200), Del: true}, // and leaves again from the left
		{Rel: "r", T: tup(3, 30, 300)},            // plain left insert
		{Rel: "u", T: tup(3, 1, 1)},               // immediately subtracted
	})
}

// TestViewStorm is the per-operator differential storm: every query shape
// above under a random write stream, answer re-checked against a fresh
// re-execution after every applied op.
func TestViewStorm(t *testing.T) {
	s := testSchema()
	shapes := map[string]func() ra.Query{
		"select": func() ra.Query {
			return ra.Proj(
				ra.Sel(ra.R("r", "r1"), ra.EqC(ra.A("r1", "b"), value.NewInt(1))),
				ra.A("r1", "a"))
		},
		"join": func() ra.Query {
			return ra.Proj(
				ra.Join(ra.R("r", "r1"), ra.R("s", "s1"),
					ra.Eq(ra.A("r1", "c"), ra.A("s1", "c"))),
				ra.A("r1", "a"), ra.A("s1", "d"))
		},
		"selfjoin": func() ra.Query {
			return ra.Proj(
				ra.Join(ra.R("r", "r1"), ra.R("r", "r2"),
					ra.Eq(ra.A("r1", "c"), ra.A("r2", "c"))),
				ra.A("r1", "a"), ra.A("r2", "b"))
		},
		"union": func() ra.Query {
			return ra.U(
				ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")),
				ra.Proj(ra.R("u", "u1"), ra.A("u1", "a")))
		},
		"diff": func() ra.Query {
			return ra.D(
				ra.Proj(ra.R("r", "r1"), ra.A("r1", "a")),
				ra.Proj(ra.R("u", "u1"), ra.A("u1", "a")))
		},
	}
	arity := map[string]int{"r": 3, "s": 2, "u": 3}
	rels := []string{"r", "s", "u"}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			db := store.NewDB(s)
			// Tiny value domain [0, 4): collisions, duplicate projections
			// and membership flips happen constantly.
			randTup := func(n int) value.Tuple {
				tu := make(value.Tuple, n)
				for i := range tu {
					tu[i] = value.NewInt(rng.Int63n(4))
				}
				return tu
			}
			for i := 0; i < 30; i++ {
				rel := rels[rng.Intn(len(rels))]
				_, _ = db.Insert(rel, randTup(arity[rel]))
			}
			var ops []store.TupleOp
			for i := 0; i < 120; i++ {
				rel := rels[rng.Intn(len(rels))]
				ops = append(ops, store.TupleOp{
					Rel: rel,
					T:   randTup(arity[rel]),
					Del: rng.Intn(2) == 0,
				})
			}
			checkView(t, s, db, mk(), ops)
		})
	}
}

// TestViewRowCap exercises ErrViewTooLarge on both paths: a build whose
// tables exceed the cap must be rejected, and a live view that grows past
// it must fail its Apply (the manager then drops it as a fallback).
func TestViewRowCap(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{
		"r": {tup(1, 10, 100), tup(2, 20, 200), tup(3, 30, 300)},
	})
	q := ra.Proj(ra.R("r", "r1"), ra.A("r1", "a"))
	norm, err := ra.Normalize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(norm, s, db, nil, 2); err == nil {
		t.Fatal("expected ErrViewTooLarge on build, got nil")
	}
	v, err := Materialize(norm, s, db, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	grow := []store.TupleOp{
		{Rel: "r", T: tup(4, 40, 400)},
		{Rel: "r", T: tup(5, 50, 500)},
		{Rel: "r", T: tup(6, 60, 600)},
	}
	var applyErr error
	for _, op := range grow {
		if _, err := db.Insert(op.Rel, op.T); err != nil {
			t.Fatal(err)
		}
		if applyErr = v.Apply(op); applyErr != nil {
			break
		}
	}
	if applyErr == nil {
		t.Fatal("expected a row-cap failure while growing the view")
	}
}

// TestViewColumnLabels checks the published snapshot adopts the caller's
// column labels when the arity matches and falls back to attribute names
// otherwise.
func TestViewColumnLabels(t *testing.T) {
	s := testSchema()
	db := seedDB(t, s, map[string][]value.Tuple{"r": {tup(1, 10, 100)}})
	q := ra.Proj(ra.R("r", "r1"), ra.A("r1", "a"), ra.A("r1", "b"))
	norm, err := ra.Normalize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Materialize(norm, s, db, []string{"x", "y"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Published().Cols; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("cols = %v, want [x y]", got)
	}
	v2, err := Materialize(norm, s, db, []string{"wrong"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Published().Cols; len(got) != 2 {
		t.Fatalf("fallback cols = %v, want arity 2", got)
	}
}
