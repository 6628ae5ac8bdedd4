package ivm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workload"
)

// deltaHarness is built once per fuzz process: the AIRCA dataset plus a
// sample of its live rows per relation, so mutated op streams hit real
// join partners instead of missing everything.
type deltaHarnessT struct {
	d       *workload.Dataset
	rels    []string
	samples map[string][]value.Tuple
	err     error
}

var (
	deltaOnce sync.Once
	deltaH    deltaHarnessT
)

func deltaHarness() *deltaHarnessT {
	deltaOnce.Do(func() {
		d, err := workload.ByName("AIRCA")
		if err != nil {
			deltaH.err = err
			return
		}
		db, err := d.Gen(0.02, 11)
		if err != nil {
			deltaH.err = err
			return
		}
		deltaH.d = d
		deltaH.samples = map[string][]value.Tuple{}
		for rel := range d.Schema {
			rows, err := db.Rows(rel)
			if err != nil {
				deltaH.err = err
				return
			}
			if len(rows) > 64 {
				rows = rows[:64]
			}
			if len(rows) > 0 {
				deltaH.rels = append(deltaH.rels, rel)
				deltaH.samples[rel] = rows
			}
		}
	})
	return &deltaH
}

// deltaPlanCase is one delta-oracle run: a generator query is materialized,
// a random tuple-op stream (deletes and reinserts of sampled rows plus
// mutated near-misses) is folded through the delta rules, and after every
// applied op the maintained answer must equal a fresh re-execution of the
// query over the mutated database. It runs twice, over an instance with the
// access schema's indices (leaves seeded by bucket fetch where they bound
// the leaf) and over the same instance without them (every leaf seeded by
// the fused scan), so both seeding rules feed the same delta rules.
func deltaPlanCase(t *testing.T, seed int64, sel, join, unidiff, nops int) {
	h := deltaHarness()
	if h.err != nil {
		t.Fatalf("harness: %v", h.err)
	}
	for _, indexed := range []bool{true, false} {
		// Every run mutates its own copy of the instance.
		db, err := h.d.Gen(0.02, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !indexed {
			db.DropIndexes()
		}
		rng := rand.New(rand.NewSource(seed))
		p := workload.DefaultQueryParams()
		p.Sel = sel % 7
		p.Join = join % 3
		p.UniDiff = unidiff % 2
		q, err := h.d.RandomQuery(p, rng)
		if err != nil {
			t.Skip()
		}
		v, err := Materialize(q, h.d.Schema, db, nil, 1<<18)
		if errors.Is(err, ErrViewTooLarge) {
			t.Skip() // a legitimate denial, not a bug
		}
		if err != nil {
			t.Fatalf("materialize failed on a generator query %q: %v", q.String(), err)
		}
		if !indexed && v.seedFetched != 0 {
			t.Fatalf("seeding %q fetched %d tuples from a database without indices", q.String(), v.seedFetched)
		}
		want, _, err := exec.RunBaseline(q, h.d.Schema, db)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if !v.Published().Equal(want) {
			t.Fatalf("seeded answer (indexed=%t) differs from re-execution on %q:\nview %d rows, want %d rows",
				indexed, q.String(), v.Published().Len(), want.Len())
		}
		for i := 0; i < nops; i++ {
			rel := h.rels[rng.Intn(len(h.rels))]
			rows := h.samples[rel]
			tu := rows[rng.Intn(len(rows))]
			if rng.Intn(3) == 0 {
				// Near-miss: clone and nudge one column, so inserts of
				// genuinely new tuples (and deletes that miss) occur too.
				tu = append(value.Tuple{}, tu...)
				c := rng.Intn(len(tu))
				if tu[c].K == value.Int {
					tu[c] = value.NewInt(tu[c].I + int64(rng.Intn(3)) - 1)
				} else {
					tu[c] = value.NewStr(tu[c].S + "x")
				}
			}
			op := store.TupleOp{Rel: rel, T: tu, Del: rng.Intn(2) == 0}
			var changed bool
			if op.Del {
				changed, err = db.Delete(op.Rel, op.T)
			} else {
				changed, err = db.Insert(op.Rel, op.T)
			}
			if err != nil || !changed {
				continue
			}
			if err := v.Apply(op); err != nil {
				if errors.Is(err, ErrViewTooLarge) {
					t.Skip()
				}
				t.Fatalf("op %d (%+v): apply: %v", i, op, err)
			}
			want, _, err := exec.RunBaseline(q, h.d.Schema, db)
			if err != nil {
				t.Fatalf("op %d: baseline: %v", i, err)
			}
			if !v.Published().Equal(want) {
				t.Fatalf("delta-maintained answer (indexed=%t) diverged from re-execution on %q after op %d (%+v):\nview %d rows, want %d rows",
					indexed, q.String(), i, op, v.Published().Len(), want.Len())
			}
		}
	}
}

// FuzzDeltaPlan is the delta-oracle fuzzer. It drives the generator's
// parameter space and the op stream's seed, so every input is well-formed
// and the seeding and delta rules absorb the whole budget.
func FuzzDeltaPlan(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(0), uint8(10))
	f.Add(int64(2), uint8(4), uint8(2), uint8(1), uint8(16))
	f.Add(int64(3), uint8(1), uint8(0), uint8(1), uint8(8))
	f.Add(int64(4), uint8(6), uint8(2), uint8(0), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, sel, join, unidiff, nops uint8) {
		deltaPlanCase(t, seed, int(sel), int(join), int(unidiff), 3+int(nops)%24)
	})
}

// TestDeltaPlanSeeds replays a fixed sweep of the fuzzer's input space as a
// plain test, so the delta-oracle property is exercised on every `go test`
// run (the fuzzer itself only runs in the dedicated smoke job).
func TestDeltaPlanSeeds(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			deltaPlanCase(t, seed, int(seed), int(seed), int(seed), 10)
		})
	}
}
