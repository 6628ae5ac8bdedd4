// The exported merge over detached Tables: the sharded router's
// scatter/gather (internal/shard) unions the members' answers with it.
// Unlike the plan operators in run.go it crosses evaluation boundaries —
// its operands come from different engines with different interners — so
// it first brings its inputs into one handle space and then works
// column-wise, never materializing per-row maps or key strings.
package exec

import "repro/internal/value"

// UnionTables returns the set union of the given tables (nil entries are
// skipped; cols labels the result when every entry is nil). The tables may
// come from different interners; entries sharing the first non-nil table's
// interner are appended without remapping.
func UnionTables(cols []string, ts ...*Table) *Table {
	var base *Table
	total := 0
	for _, t := range ts {
		if t == nil {
			continue
		}
		if base == nil {
			base = t
		}
		total += t.n
	}
	if base == nil {
		return NewTable(cols)
	}
	s := base.in.CloneTables()
	out := &Table{Cols: cols, in: s, cols: make([][]value.Handle, len(cols))}
	for j := range out.cols {
		out.cols[j] = make([]value.Handle, 0, total)
	}
	for _, t := range ts {
		if t == nil {
			continue
		}
		if t.in == base.in {
			// Same source interner: s preserves its ids, handles are valid
			// as they are.
			for j := range out.cols {
				out.cols[j] = append(out.cols[j], t.cols[j][:t.n]...)
			}
			continue
		}
		strs, bigs := t.in.InternRemap(s)
		for j := range out.cols {
			c := t.cols[j]
			for i := 0; i < t.n; i++ {
				out.cols[j] = append(out.cols[j], c[i].Remap(strs, bigs))
			}
		}
	}
	out.setLen(total)
	out.dedupAll()
	noteBatch(out.n)
	return out
}
