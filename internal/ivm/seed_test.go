package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workload"
)

// seedShapes are the query forms the repo's pooled benchmark workloads
// issue — key lookup, bounded fan-out, joins against a small relation and
// against keyed ones, EXCEPT, UNION — plus two forms chosen for the seeding
// rules themselves: a residual constant beside the index key, and a leaf
// nothing is read from. %[1]d is a flight id, %[2]d an origin, %[3]d a
// month, %[4]d a second origin, %[5]d a carrier country.
var seedShapes = []struct{ name, text string }{
	{"point", `q(origin, dest, airline, month, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`},
	{"fanout", `q(airline) :- ontime(f, %[2]d, d, airline, m, delay)`},
	{"carrier", `q(airline, country) :- ontime(f, %[2]d, d, airline, m, delay), carrier(airline, nm, country)`},
	{"causes", `q(origin, dest, cause, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, cause, mins)`},
	{"city", `q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`},
	{"monthdest", `q(dest, city) :- ontime(f, %[2]d, dest, al, %[3]d, delay), airport(dest, city, st)`},
	{"keyedjoin", `q(f, cause) :- ontime(f, %[2]d, d, al, %[3]d, delay), delaycause(f, cause, mins)`},
	{"except", `(q(airline) :- ontime(f, %[2]d, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, %[5]d), ontime(f2, %[2]d, d2, airline, m2, delay2))`},
	{"union", `(q(airline) :- ontime(f, %[2]d, d, airline, m, delay)) UNION (q(airline) :- ontime(f2, %[4]d, d2, airline, m2, delay2))`},
	{"residual", `q(dest) :- ontime(%[1]d, %[2]d, dest, al, m, delay)`},
	{"existence", `q(airline) :- ontime(f, %[2]d, d, airline, m, delay), airport(c, city, %[5]d)`},
}

// sameTables requires two views of the same query to hold identical counted
// tables at every node — counts included, which published answers hide
// until a delete makes one reach zero on one side only.
func sameTables(t *testing.T, where string, a, b *node) {
	t.Helper()
	if (a.rows == nil) != (b.rows == nil) || len(a.rows) != len(b.rows) {
		t.Fatalf("%s: node %s holds %d rows index-seeded, %d scan-seeded", where, a.q, len(a.rows), len(b.rows))
	}
	for k, ca := range a.rows {
		if cb := b.rows[k]; cb == nil || cb.n != ca.n {
			t.Fatalf("%s: node %s row %s: count %d index-seeded, %+v scan-seeded", where, a.q, ca.t, ca.n, cb)
		}
	}
	for i := range a.children {
		sameTables(t, where, a.children[i], b.children[i])
	}
}

// TestSeedDifferential is the seeding wall: for every shape, a view seeded
// through the access-schema indices, a view seeded by the fused scan (the
// same instance with its indices dropped) and a fresh re-execution must
// agree — on the answer and, between the two views, on every counted
// table — right after seeding and after every op of a random write stream.
func TestSeedDifferential(t *testing.T) {
	d := workload.Airca()
	live, err := d.Gen(0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	ontime, err := live.Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	value.SortTuples(ontime)
	anchor, other := ontime[len(ontime)/2], ontime[len(ontime)/3]
	type tcase struct{ name, src string }
	var cases []tcase
	for _, s := range seedShapes {
		cases = append(cases, tcase{s.name, fmt.Sprintf(s.text,
			anchor[0].I, anchor[1].I, anchor[4].I, other[1].I, anchor[3].I%6)})
	}
	for _, tpl := range d.Templates() {
		cases = append(cases, tcase{"template/" + tpl.Name, tpl.Src})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			indexed, err := d.Gen(0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := d.Gen(0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			bare.DropIndexes()
			q, err := parser.Parse(tc.src, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := ra.Normalize(q, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			vi, err := Materialize(norm, d.Schema, indexed, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := Materialize(norm, d.Schema, bare, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if vs.seedFetched != 0 || vs.seedScanned == 0 {
				t.Fatalf("index-less seeding read %d via index, %d via scan", vs.seedFetched, vs.seedScanned)
			}
			check := func(where string) {
				t.Helper()
				want, _, err := exec.RunBaseline(norm, d.Schema, bare)
				if err != nil {
					t.Fatal(err)
				}
				if got := vi.Published(); !got.Equal(want) {
					t.Fatalf("%s: index-seeded view diverged from re-execution\nview: %s\nwant: %s", where, got, want)
				}
				if got := vs.Published(); !got.Equal(want) {
					t.Fatalf("%s: scan-seeded view diverged from re-execution\nview: %s\nwant: %s", where, got, want)
				}
				sameTables(t, where, vi.root, vs.root)
			}
			check("after seeding")

			// The stream deletes and reinserts rows the query can see
			// (they share the anchor's keys) among arbitrary ones, and
			// nudges a column now and then so genuinely new tuples and
			// missing deletes occur too.
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			pool := map[string][]value.Tuple{}
			for _, rel := range vi.BaseRels() {
				rows, err := indexed.Rows(rel)
				if err != nil {
					t.Fatal(err)
				}
				value.SortTuples(rows)
				for _, r := range rows {
					if len(pool[rel]) < 40 || r[0] == anchor[0] || (rel == "ontime" && r[1] == anchor[1]) {
						pool[rel] = append(pool[rel], r)
					}
				}
			}
			rels := vi.BaseRels()
			for i := 0; i < 80; i++ {
				rel := rels[rng.Intn(len(rels))]
				tu := pool[rel][rng.Intn(len(pool[rel]))]
				if rng.Intn(4) == 0 {
					tu = tu.Clone()
					c := rng.Intn(len(tu))
					tu[c] = value.NewInt(tu[c].I + int64(rng.Intn(3)) - 1)
				}
				op := store.TupleOp{Rel: rel, T: tu, Del: rng.Intn(2) == 0}
				for _, side := range []struct {
					db *store.DB
					v  *View
				}{{indexed, vi}, {bare, vs}} {
					var changed bool
					if op.Del {
						changed, err = side.db.Delete(op.Rel, op.T)
					} else {
						changed, err = side.db.Insert(op.Rel, op.T)
					}
					if err != nil {
						t.Fatal(err)
					}
					if changed {
						if err := side.v.Apply(op); err != nil {
							t.Fatalf("op %d (%+v): %v", i, op, err)
						}
					}
				}
				check(fmt.Sprintf("after op %d (%+v)", i, op))
			}
		})
	}
}

// TestSeedUsesIndex pins which rule seeds which leaf: a constant on an
// index's X with the needed columns inside its XY reads one bucket, a
// residual constant filters that bucket, and a leaf the access schema does
// not bound falls back to the scan.
func TestSeedUsesIndex(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	ontime, err := db.Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	value.SortTuples(ontime)
	a := ontime[len(ontime)/2]
	airports, err := db.Rows("airport")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src         string
		maxFetch, scanned int64
	}{
		{"key", fmt.Sprintf(`q(origin, dest) :- ontime(%d, origin, dest, al, m, delay)`, a[0].I), 1, 0},
		{"fanout", fmt.Sprintf(`q(airline) :- ontime(f, %d, d, airline, m, delay)`, a[1].I), 28, 0},
		{"pair", fmt.Sprintf(`q(dest) :- ontime(f, %d, dest, al, %d, delay)`, a[1].I, a[4].I), 60, 0},
		{"residual", fmt.Sprintf(`q(dest) :- ontime(%d, %d, dest, al, m, delay)`, a[0].I, a[1].I), 1, 0},
		{"empty-x", `q(airline) :- carrier(airline, nm, country)`, 40, 0},
		{"unbounded", `q(city) :- airport(code, city, st)`, 0, int64(len(airports))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := parser.Parse(tc.src, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := ra.Normalize(q, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			before := db.Counter()
			v, err := Materialize(norm, d.Schema, db, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v.seedFetched > tc.maxFetch || v.seedScanned != tc.scanned || (tc.scanned == 0 && v.seedFetched == 0) {
				t.Fatalf("seeding read %d via index (want 1..%d) and %d via scan (want %d)",
					v.seedFetched, tc.maxFetch, v.seedScanned, tc.scanned)
			}
			// The store's own access counters saw exactly the same reads.
			after := db.Counter()
			if after.Fetched-before.Fetched != v.seedFetched || after.Scanned-before.Scanned != v.seedScanned {
				t.Fatalf("store counted %+v → %+v, the view %d fetched / %d scanned", before, after, v.seedFetched, v.seedScanned)
			}
			want, _, err := exec.RunBaseline(norm, d.Schema, db)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Published().Equal(want) {
				t.Fatalf("seeded answer differs from re-execution\nview: %s\nwant: %s", v.Published(), want)
			}
		})
	}
}

// TestPrunePushesProjections checks the rewrite's shape on a join: each
// leaf ends as π(σ(R)) carrying only the columns read above it, and the
// tables retained for the product's operands are that narrow.
func TestPrunePushesProjections(t *testing.T) {
	d := workload.Airca()
	q, err := parser.Parse(`q(airline, country) :- ontime(f, 42, d, airline, m, delay), carrier(airline, nm, country)`, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := ra.Normalize(q, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Build(norm, d.Schema, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*leafScan
	var walk func(n *node)
	walk = func(n *node) {
		if n.scan != nil {
			if !n.needsRows() {
				t.Errorf("leaf pattern %s is not a product operand", n.q)
			}
			leaves = append(leaves, n.scan)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(v.root)
	if len(leaves) != 2 {
		t.Fatalf("found %d leaf patterns in %s, want 2", len(leaves), v.root.q)
	}
	for _, ls := range leaves {
		switch ls.base {
		case "ontime":
			if fmt.Sprint(ls.out) != "[airline]" || fmt.Sprint(ls.bound) != "[origin]" {
				t.Errorf("ontime leaf keeps %v bound on %v, want [airline] on [origin]", ls.out, ls.bound)
			}
		case "carrier":
			if fmt.Sprint(ls.out) != "[airline country]" || len(ls.bound) != 0 {
				t.Errorf("carrier leaf keeps %v bound on %v, want [airline country] unbound", ls.out, ls.bound)
			}
		}
	}
}
