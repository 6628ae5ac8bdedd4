package exec_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// benchPlans builds one hand-crafted micro-plan per operator family over a
// synthetic relation, so each benchmark measures one operator's per-tuple
// behaviour instead of whatever mix a generated query happens to contain.
// Built once per process; executions only read the DB.
type benchPlansT struct {
	db    *store.DB
	plans map[string]*plan.Plan // select / join / union / fetch
	err   error
}

var (
	benchPlansOnce sync.Once
	benchPlansH    benchPlansT
)

// benchRows is the batch size every micro-plan pushes through its
// operator; large enough that per-tuple costs dominate fixed setup.
const benchRows = 4096

func benchPlans() *benchPlansT {
	benchPlansOnce.Do(func() {
		benchPlansH.err = buildBenchPlans(&benchPlansH)
	})
	return &benchPlansH
}

func buildBenchPlans(h *benchPlansT) error {
	const (
		nKeys  = 256 // distinct fetch keys
		fanout = benchRows / nKeys
	)
	h.db = store.NewDB(ra.Schema{"r": {"a", "b", "c"}})
	con := access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b", "c"}, N: fanout}
	for k := 0; k < nKeys; k++ {
		for f := 0; f < fanout; f++ {
			row := value.Tuple{
				value.NewInt(int64(k)),
				value.NewStr(fmt.Sprintf("name-%03d", (k*fanout+f)%512)),
				value.NewInt(int64(f)),
			}
			if _, err := h.db.Insert("r", row); err != nil {
				return err
			}
		}
	}
	if _, err := h.db.BuildIndex(con); err != nil {
		return err
	}

	// Shared constant inputs: wide has benchRows rows over (a, b, c) with
	// a == c on half of them; narrowL/narrowR join on b with ~2 partners
	// per left row.
	wide := make([]value.Tuple, benchRows)
	for i := range wide {
		c := int64(i)
		if i%2 == 0 {
			c = int64(i % 97)
		}
		wide[i] = value.Tuple{
			value.NewInt(int64(i % 97)),
			value.NewStr(fmt.Sprintf("name-%03d", i%512)),
			value.NewInt(c),
		}
	}
	narrowL := make([]value.Tuple, benchRows)
	for i := range narrowL {
		narrowL[i] = value.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i % (benchRows / 2)))}
	}
	narrowR := make([]value.Tuple, benchRows/2)
	for i := range narrowR {
		narrowR[i] = value.Tuple{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("name-%03d", i%512))}
	}
	xs := make([]value.Tuple, nKeys)
	for k := range xs {
		xs[k] = value.Tuple{value.NewInt(int64(k))}
	}

	h.plans = map[string]*plan.Plan{
		"fetch": {Result: 1, FetchSteps: []int{1}, Steps: []plan.Step{
			{ID: 0, Op: plan.OpConst, Cols: []string{"x"}, L: -1, R: -1, Rows: xs},
			{ID: 1, Op: plan.OpFetch, Cols: []string{"x", "b", "c"}, L: 0, R: -1,
				Occ: "r", Con: con, XCols: []string{"x"},
				FetchAttrs:  []string{"a", "b", "c"},
				FetchLabels: []string{"x", "b", "c"}},
		}},
		"select": {Result: 1, Steps: []plan.Step{
			{ID: 0, Op: plan.OpConst, Cols: []string{"a", "b", "c"}, L: -1, R: -1, Rows: wide},
			{ID: 1, Op: plan.OpFilter, Cols: []string{"a", "b", "c"}, L: 0, R: -1,
				Conds: []plan.Cond{
					{PosA: 0, PosB: 2},
					{PosA: 1, C: value.NewStr("name-007"), IsConst: true},
				}},
		}},
		"join": {Result: 2, Steps: []plan.Step{
			{ID: 0, Op: plan.OpConst, Cols: []string{"a", "b"}, L: -1, R: -1, Rows: narrowL},
			{ID: 1, Op: plan.OpConst, Cols: []string{"b", "c"}, L: -1, R: -1, Rows: narrowR},
			{ID: 2, Op: plan.OpJoin, Cols: []string{"a", "b", "c"}, L: 0, R: 1},
		}},
		"union": {Result: 2, Steps: []plan.Step{
			{ID: 0, Op: plan.OpConst, Cols: []string{"a", "b", "c"}, L: -1, R: -1, Rows: wide[:benchRows/2]},
			{ID: 1, Op: plan.OpConst, Cols: []string{"a", "b", "c"}, L: -1, R: -1, Rows: wide[benchRows/4:]},
			{ID: 2, Op: plan.OpUnion, Cols: []string{"a", "b", "c"}, L: 0, R: 1},
		}},
	}

	// Sanity: both executors agree on every micro-plan before anything is
	// measured.
	for kind, p := range h.plans {
		got, _, err := exec.Run(p, h.db)
		if err != nil {
			return fmt.Errorf("%s: batched: %w", kind, err)
		}
		want, _, err := exec.RunLegacy(p, h.db)
		if err != nil {
			return fmt.Errorf("%s: legacy: %w", kind, err)
		}
		if got.Len() == 0 || !got.Equal(want) {
			return fmt.Errorf("%s: micro-plan disagreement (batched %d rows, legacy %d rows)", kind, got.Len(), want.Len())
		}
	}
	return nil
}

// benchOp measures one operator family's plan through the batched executor
// and the tuple-at-a-time reference; `make bench-exec` reports both with
// -benchmem so the allocation win is visible per operator.
func benchOp(b *testing.B, kind string) {
	h := benchPlans()
	if h.err != nil {
		b.Fatalf("harness: %v", h.err)
	}
	p := h.plans[kind]
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := exec.Run(p, h.db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := exec.RunLegacy(p, h.db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExecSelect(b *testing.B) { benchOp(b, "select") }
func BenchmarkExecJoin(b *testing.B)   { benchOp(b, "join") }
func BenchmarkExecUnion(b *testing.B)  { benchOp(b, "union") }
func BenchmarkExecFetch(b *testing.B)  { benchOp(b, "fetch") }
