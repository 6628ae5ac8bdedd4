package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workload"
)

// batchFuzzHarness is built once per process: the AIRCA dataset and one
// generated instance shared by every fuzz iteration (executions only read).
type batchFuzzHarnessT struct {
	d   *workload.Dataset
	db  *store.DB
	err error
}

var (
	batchFuzzOnce sync.Once
	batchFuzzH    batchFuzzHarnessT
)

func batchFuzzHarness() *batchFuzzHarnessT {
	batchFuzzOnce.Do(func() {
		d, err := workload.ByName("AIRCA")
		if err != nil {
			batchFuzzH.err = err
			return
		}
		db, err := d.Gen(0.05, 11)
		if err != nil {
			batchFuzzH.err = err
			return
		}
		batchFuzzH.d = d
		batchFuzzH.db = db
	})
	return &batchFuzzH
}

// checkBatchLegacy generates one query from the parameters and asserts the
// batched executor agrees with the tuple-at-a-time reference evaluator on
// every observable: bounded answers, baseline answers, and the access
// statistics both report. A covered query must also keep the paper's bound
// at run time: no scans, a fetch count equal to the store's own counter
// delta, and no more accesses than the plan's static bound; and Run over
// a Source wrapping the store must match Run over the store itself.
func checkBatchLegacy(t *testing.T, seed int64, sel, join, unidiff uint8) {
	t.Helper()
	h := batchFuzzHarness()
	if h.err != nil {
		t.Fatalf("harness: %v", h.err)
	}
	rng := rand.New(rand.NewSource(seed))
	params := workload.DefaultQueryParams()
	params.Sel = 1 + int(sel)%6
	params.Join = int(join) % 4
	params.UniDiff = int(unidiff) % 3
	q, err := h.d.RandomQuery(params, rng)
	if err != nil {
		t.Skip()
	}

	// Baseline pair runs on every query; the bounded pair additionally
	// needs coverage.
	want, wantSt, errL := exec.RunBaselineLegacy(q, h.d.Schema, h.db)
	got, gotSt, errB := exec.RunBaseline(q, h.d.Schema, h.db)
	if (errL == nil) != (errB == nil) {
		t.Fatalf("baseline error divergence on %s: legacy %v, batched %v", q, errL, errB)
	}
	if errL == nil {
		if !got.Equal(want) {
			t.Fatalf("baseline answer divergence on %s: batched %d rows, legacy %d rows\n%s",
				q, got.Len(), want.Len(), rowDiff(got, want))
		}
		if gotSt.Accessed != wantSt.Accessed {
			t.Fatalf("baseline access divergence on %s: batched %d, legacy %d", q, gotSt.Accessed, wantSt.Accessed)
		}
	}

	res, err := cover.Check(q, h.d.Schema, h.d.Access)
	if err != nil || !res.Covered {
		return
	}
	p, err := plan.Build(res)
	if err != nil {
		t.Fatalf("plan build on covered %s: %v", q, err)
	}
	want, wantSt, errL = exec.RunLegacy(p, h.db)
	// The harness DB has no concurrent user, so the store's counter delta
	// across the call is exactly this run's accesses.
	before := h.db.Counter()
	got, gotSt, errB = exec.Run(p, h.db)
	delta := h.db.Counter().Fetched - before.Fetched
	if (errL == nil) != (errB == nil) {
		t.Fatalf("bounded error divergence on %s: legacy %v, batched %v", q, errL, errB)
	}
	if errL != nil {
		return
	}
	if !got.Equal(want) {
		t.Fatalf("bounded answer divergence on %s: batched %d rows, legacy %d rows\n%s\nplan:\n%s",
			q, got.Len(), want.Len(), rowDiff(got, want), p)
	}
	if gotSt.Accessed != wantSt.Accessed {
		t.Fatalf("bounded access divergence on %s: batched %d, legacy %d\nplan:\n%s", q, gotSt.Accessed, wantSt.Accessed, p)
	}
	if gotSt.Scanned != 0 {
		t.Fatalf("bounded run of %s scanned %d tuples\nplan:\n%s", q, gotSt.Scanned, p)
	}
	if gotSt.Fetched != delta {
		t.Fatalf("bounded run of %s reports %d fetched, the store counted %d\nplan:\n%s", q, gotSt.Fetched, delta, p)
	}
	if bound := p.MaxAccessBound(); gotSt.Accessed > bound {
		t.Fatalf("bounded run of %s accessed %d tuples, above the plan's bound %d\nplan:\n%s", q, gotSt.Accessed, bound, p)
	}
	// The same plan over a Source that is not a *store.DB takes the
	// interface path of every fetch; answer and access counts must not move.
	via, viaSt, err := exec.Run(p, passThrough{h.db})
	if err != nil {
		t.Fatalf("run of %s over a pass-through source: %v", q, err)
	}
	if !via.Equal(got) {
		t.Fatalf("pass-through answer divergence on %s: %d rows vs %d\n%s", q, via.Len(), got.Len(), rowDiff(via, got))
	}
	viaSt.Duration, gotSt.Duration = 0, 0
	if viaSt != gotSt {
		t.Fatalf("pass-through stats divergence on %s: %+v vs %+v", q, viaSt, gotSt)
	}
}

// passThrough hides a *store.DB behind exec.Source, so Run cannot take its
// concrete fast path and every batch goes through the interface.
type passThrough struct{ db *store.DB }

func (s passThrough) Fetch(c access.Constraint, xvals value.Tuple) ([]value.Tuple, error) {
	return s.db.Fetch(c, xvals)
}

func (s passThrough) FetchBatch(c access.Constraint, xs []value.Tuple, emit func(int, []value.Tuple)) error {
	return s.db.FetchBatch(c, xs, emit)
}

// rowDiff renders the smallest repair that reconciles two answers: the
// rows only in got and the rows only in want, at most diffCap of each.
func rowDiff(got, want *exec.Table) string {
	const diffCap = 10
	var sb strings.Builder
	side := func(name string, a, b *exec.Table) {
		var only []value.Tuple
		for _, r := range a.Sorted() {
			if !b.Has(r) {
				only = append(only, r)
			}
		}
		fmt.Fprintf(&sb, "only in %s (%d):\n", name, len(only))
		for i, r := range only {
			if i == diffCap {
				fmt.Fprintf(&sb, "  ... %d more\n", len(only)-diffCap)
				break
			}
			fmt.Fprintf(&sb, "  %s\n", r)
		}
	}
	side("got", got, want)
	side("want", want, got)
	return sb.String()
}

// batchFuzzSeeds are the corpus the fuzzer mutates and the replay test
// pins: selection-heavy, join-heavy, and union/difference shapes.
var batchFuzzSeeds = [][4]int64{
	{1, 2, 0, 0},
	{2, 4, 1, 0},
	{3, 1, 2, 1},
	{4, 3, 0, 2},
	{5, 5, 3, 1},
	{6, 2, 1, 2},
	{7, 1, 3, 0},
	{8, 6, 2, 2},
}

// FuzzBatchExec is the vectorized executor's differential oracle: for
// arbitrary generator parameters, the batched evaluators (Run, RunBaseline)
// must return exactly the answers AND the access statistics of the
// tuple-at-a-time reference evaluator, and Run must stay within its plan's
// access bound. CI runs it briefly on every build (make fuzz-smoke); any
// crasher replays deterministically from its corpus file.
func FuzzBatchExec(f *testing.F) {
	for _, s := range batchFuzzSeeds {
		f.Add(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, seed int64, sel, join, unidiff uint8) {
		checkBatchLegacy(t, seed, sel, join, unidiff)
	})
}

// TestBatchLegacyReplay replays the fuzz corpus seeds (and a sweep of
// deterministic extras) as a plain test, so the batched-vs-reference
// equivalence and the run-time bound are exercised on every `go test` run,
// not only under the fuzzer.
func TestBatchLegacyReplay(t *testing.T) {
	for _, s := range batchFuzzSeeds {
		checkBatchLegacy(t, s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	for seed := int64(100); seed < 140; seed++ {
		checkBatchLegacy(t, seed, uint8(seed%7), uint8(seed%5), uint8(seed%3))
	}
}
