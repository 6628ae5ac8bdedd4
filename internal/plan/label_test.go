package plan

import (
	"testing"

	"repro/internal/access"
	"repro/internal/ra"
)

// TestClassLabels pins the class-node and Y~ labels: they are plan column
// names, so their bytes must not change. Sub-query 12 has a two-digit
// index.
func TestClassLabels(t *testing.T) {
	rep := ra.Attr{Rel: "ot", Name: "dest"}
	for _, c := range []struct {
		si   int
		want string
	}{{0, "s0.ot.dest"}, {7, "s7.ot.dest"}, {12, "s12.ot.dest"}} {
		if got := ClassLabel(c.si, rep); got != c.want {
			t.Errorf("ClassLabel(%d) = %q, want %q", c.si, got, c.want)
		}
	}
	ac := access.ActualConstraint{
		Constraint: access.Constraint{Rel: "ot", X: []string{"fid"}, Y: []string{"dest", "al"}, N: 1},
	}
	if got, want := yLabel(12, ac), "s12~ot(fid->dest,al)"; got != want {
		t.Errorf("yLabel = %q, want %q", got, want)
	}
}
