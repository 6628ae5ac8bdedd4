package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/value"
)

func mkTable(cols []string, rows ...value.Tuple) *exec.Table {
	t := exec.NewTableSized(cols, len(rows))
	for _, r := range rows {
		t.Add(r)
	}
	return t
}

func iv(i int64) value.Value  { return value.NewInt(i) }
func sv(s string) value.Value { return value.NewStr(s) }

func TestUnionTables(t *testing.T) {
	cols := []string{"a", "b"}
	if got := exec.UnionTables(cols, nil, nil); got.Len() != 0 || len(got.Cols) != 2 {
		t.Fatalf("all-nil union gave %d rows over %v", got.Len(), got.Cols)
	}

	l := mkTable(cols, value.Tuple{iv(1), sv("x")}, value.Tuple{iv(2), sv("y")})
	// Same-interner entry (l twice) plus a cross-interner entry with one
	// overlapping and one fresh row.
	r := mkTable(cols, value.Tuple{iv(2), sv("y")}, value.Tuple{iv(3), sv("z")})
	got := exec.UnionTables(cols, l, nil, l, r)
	want := mkTable(cols,
		value.Tuple{iv(1), sv("x")},
		value.Tuple{iv(2), sv("y")},
		value.Tuple{iv(3), sv("z")},
	)
	if !got.Equal(want) {
		t.Fatalf("union gave:\n%s\nwant:\n%s", got, want)
	}
}

func TestReadCounters(t *testing.T) {
	before := exec.ReadCounters()
	l := mkTable([]string{"a"}, value.Tuple{iv(1)}, value.Tuple{iv(2)})
	r := mkTable([]string{"a"}, value.Tuple{iv(2)})
	exec.UnionTables(l.Cols, l, r)
	after := exec.ReadCounters()
	if after.Batches <= before.Batches {
		t.Fatalf("Batches did not advance: %d -> %d", before.Batches, after.Batches)
	}
	if after.Rows < before.Rows {
		t.Fatalf("Rows went backwards: %d -> %d", before.Rows, after.Rows)
	}
}
