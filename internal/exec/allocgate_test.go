//go:build !race

package exec_test

import (
	"testing"

	"repro/internal/exec"
)

// execAllocBudget is the per-evaluation allocation ceiling of every
// operator-family micro-plan. Each plan pushes benchRows (4096) rows
// through its operator and today costs 13–24 allocations, all fixed
// per-plan setup and result detachment; a single per-row allocation on
// any operator would cost thousands and fail the gate.
const execAllocBudget = 48

// TestExecAllocBudget is the CI allocation gate: on every operator-family
// plan the batched executor must stay within a fixed allocation budget per
// evaluation. Guarded by !race because race instrumentation changes
// allocation counts.
func TestExecAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	h := benchPlans()
	if h.err != nil {
		t.Fatalf("harness: %v", h.err)
	}
	for kind, p := range h.plans {
		allocs := testing.AllocsPerRun(30, func() {
			if _, _, err := exec.Run(p, h.db); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op (budget %d)", kind, allocs, execAllocBudget)
		if allocs > execAllocBudget {
			t.Errorf("%s: batched executor allocates %.0f/op, above the budget of %d", kind, allocs, execAllocBudget)
		}
	}
}
