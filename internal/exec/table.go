// Package exec executes bounded query plans against the store (evalQP) and
// provides a conventional DBMS-style evaluator (evalDBMS) that scans whole
// relations and hash-joins full tuples — the baseline of Section 8. Both
// report exact access statistics so experiments can compute P(D_Q).
//
// The executor is columnar: a Table stores one []value.Handle slice per
// column over a per-table (or per-evaluation) string interner, operators
// work on whole columns, and intermediates draw their memory from a pooled
// per-request arena that is returned wholesale when the evaluation ends.
// Run is the only plan evaluator and RunBaseline the only conventional
// one; the tuple-at-a-time evaluator the fuzz wall compares them against
// lives in test code (legacy_test.go).
package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// Table is a set-semantics result table with labeled columns, stored
// column-wise: cols[j][i] is the handle of row i's value in column j,
// resolved by the table's interner. A zero-column table is either empty or
// the singleton {()}, representing a boolean.
//
// Concurrency contract: Add mutates the table and its interner and must be
// single-goroutine; all read methods (Has, Len, Tuples, Sorted, Equal,
// String) are safe to call concurrently once no more Adds happen — lazy
// membership-index builds are internally synchronized.
type Table struct {
	Cols []string

	in   *value.Interner
	cols [][]value.Handle
	n    int
	a    *arena // non-nil while backed by an evaluation arena

	// set is the membership index (row dedup). It is built eagerly by
	// deduplicating constructors and lazily — under mu, signalled through
	// setReady — by the first reader that needs it.
	mu       sync.Mutex
	setReady atomic.Bool
	set      rowSet
}

// NewTable creates an empty heap-backed table with the given column labels.
func NewTable(cols []string) *Table {
	return NewTableSized(cols, 0)
}

// NewTableSized is NewTable with a row-capacity hint, pre-sizing the
// columns and the dedup index for bulk loading (the IVM publish path).
func NewTableSized(cols []string, capacity int) *Table {
	t := &Table{Cols: cols, in: value.NewInterner(), cols: make([][]value.Handle, len(cols))}
	for j := range t.cols {
		t.cols[j] = make([]value.Handle, 0, capacity)
	}
	t.initSet(capacity)
	return t
}

// newCtxTable creates an arena-backed intermediate table for one
// evaluation: columns come from the evaluation's arena and the interner is
// the one all of its intermediates share. The dedup index is NOT initialized — operators
// that need dedup call initSet or dedupAll themselves.
func newCtxTable(ctx *evalCtx, cols []string, capacity int) *Table {
	t := &Table{Cols: cols, in: ctx.in, a: ctx.a, cols: make([][]value.Handle, len(cols))}
	for j := range t.cols {
		t.cols[j] = ctx.allocHandles(capacity)
	}
	return t
}

// initSet points the dedup index at a fresh zeroed table sized for
// capacity rows, allocated from the table's arena when it has one.
func (t *Table) initSet(capacity int) {
	slots := setSlots(capacity)
	var buf []int32
	if t.a != nil {
		buf = t.a.ints(slots)[:slots]
		clear(buf)
	} else {
		buf = make([]int32, slots)
	}
	t.set.reset(buf, slots)
	t.setReady.Store(true)
}

// ensureSet builds the membership index on first use after a non-dedup
// constructor (or detach) skipped it. Safe under concurrent readers; the
// lazy build always uses heap memory because the reader's goroutine does
// not own the builder's arena.
func (t *Table) ensureSet() {
	if t.setReady.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.setReady.Load() {
		return
	}
	slots := setSlots(t.n)
	buf := make([]int32, slots)
	t.set.reset(buf, slots)
	for i := 0; i < t.n; i++ {
		h := hashRowAll(t.cols, i)
		slot := uint32(h) & t.set.mask
		for t.set.idx[slot] != 0 {
			slot = (slot + 1) & t.set.mask
		}
		t.set.idx[slot] = int32(i) + 1
	}
	t.set.cnt = t.n
	t.setReady.Store(true)
}

// growSet doubles the index and rehashes every live row.
func (t *Table) growSet() {
	slots := len(t.set.idx) * 2
	var buf []int32
	if t.a != nil {
		buf = t.a.ints(slots)[:slots]
		clear(buf)
	} else {
		buf = make([]int32, slots)
	}
	t.set.reset(buf, slots)
	for i := 0; i < t.n; i++ {
		h := hashRowAll(t.cols, i)
		slot := uint32(h) & t.set.mask
		for t.set.idx[slot] != 0 {
			slot = (slot + 1) & t.set.mask
		}
		t.set.idx[slot] = int32(i) + 1
	}
	t.set.cnt = t.n
}

// pushCand writes h as column j of the candidate row at index n. Every
// column must be pushed before commitCand decides the row's fate.
func (t *Table) pushCand(j int, h value.Handle) {
	c := t.cols[j]
	if len(c) == cap(c) && t.a != nil {
		c = t.a.growHandles(c, 1)
	}
	t.cols[j] = append(c, h)
}

// commitCand deduplicates the candidate row written by pushCand: a new row
// is kept (true), a duplicate is truncated away (false). The dedup index
// must be initialized.
func (t *Table) commitCand() bool {
	if len(t.cols) == 0 {
		if t.n == 0 {
			t.n = 1
			return true
		}
		return false
	}
	h := hashRowAll(t.cols, t.n)
	slot := uint32(h) & t.set.mask
	for {
		e := t.set.idx[slot]
		if e == 0 {
			t.set.idx[slot] = int32(t.n) + 1
			t.set.cnt++
			t.n++
			if 4*t.set.cnt >= 3*len(t.set.idx) {
				t.growSet()
			}
			return true
		}
		if rowsEqAt(t.cols, int(e-1), t.cols, t.n) {
			for j := range t.cols {
				t.cols[j] = t.cols[j][:t.n]
			}
			return false
		}
		slot = (slot + 1) & t.set.mask
	}
}

// setLen finalizes a bulk write of m rows whose distinctness the operator
// guarantees (filters, joins and products of distinct inputs); the dedup
// index stays unbuilt until a reader needs it.
func (t *Table) setLen(m int) {
	t.n = m
}

// dedupAll compacts a bulk write of t.n candidate rows in place, dropping
// duplicates and building the membership index sized for the batch.
func (t *Table) dedupAll() {
	m := t.n
	if len(t.cols) == 0 {
		if m > 1 {
			t.n = 1
		}
		t.setReady.Store(true)
		return
	}
	t.initSet(m)
	w := 0
	for i := 0; i < m; i++ {
		h := hashRowAll(t.cols, i)
		slot := uint32(h) & t.set.mask
		dup := false
		for {
			e := t.set.idx[slot]
			if e == 0 {
				t.set.idx[slot] = int32(w) + 1
				t.set.cnt++
				break
			}
			if rowsEqAt(t.cols, int(e-1), t.cols, i) {
				dup = true
				break
			}
			slot = (slot + 1) & t.set.mask
		}
		if dup {
			continue
		}
		if w != i {
			for j := range t.cols {
				t.cols[j][w] = t.cols[j][i]
			}
		}
		w++
	}
	t.n = w
	for j := range t.cols {
		t.cols[j] = t.cols[j][:w]
	}
}

// lookupRow reports whether the table contains the row given as handles in
// the table's own interner space. The dedup index must be ready.
func (t *Table) lookupRow(vals []value.Handle) bool {
	if len(t.cols) == 0 {
		return t.n > 0
	}
	h := uint64(hashSeed)
	for _, v := range vals {
		h = mix64(h ^ uint64(v))
	}
	slot := uint32(h) & t.set.mask
	for {
		e := t.set.idx[slot]
		if e == 0 {
			return false
		}
		eq := true
		for j, c := range t.cols {
			if c[e-1] != vals[j] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
		slot = (slot + 1) & t.set.mask
	}
}

// detach copies the table out of its evaluation arena into self-contained
// heap storage with a private interner, so the arena can be recycled while
// the result lives on. The membership index is rebuilt lazily on demand.
func (t *Table) detach() *Table {
	out := &Table{Cols: t.Cols, in: t.in.CloneTables(), n: t.n, cols: make([][]value.Handle, len(t.cols))}
	for j, c := range t.cols {
		nc := make([]value.Handle, t.n)
		copy(nc, c[:t.n])
		out.cols[j] = nc
	}
	return out
}

// Add inserts a tuple (set semantics). The tuple length must match Cols.
// Add is a mutation: single-goroutine, and only on tables the caller owns
// (NewTable results — not operator outputs, which may share an interner).
func (t *Table) Add(row value.Tuple) {
	t.ensureSet()
	for j := range t.cols {
		t.pushCand(j, t.in.Intern(row[j]))
	}
	t.commitCand()
}

// Has reports whether the table contains the tuple.
func (t *Table) Has(row value.Tuple) bool {
	if len(row) != len(t.cols) {
		return false
	}
	t.ensureSet()
	vals := make([]value.Handle, len(row))
	for j, v := range row {
		h, ok := t.in.LookupHandle(v)
		if !ok {
			return false
		}
		vals[j] = h
	}
	return t.lookupRow(vals)
}

// Len returns the number of tuples.
func (t *Table) Len() int { return t.n }

// Tuples returns the tuples in unspecified order.
func (t *Table) Tuples() []value.Tuple {
	out := make([]value.Tuple, t.n)
	flat := make(value.Tuple, t.n*len(t.cols))
	for i := 0; i < t.n; i++ {
		row := flat[i*len(t.cols) : (i+1)*len(t.cols) : (i+1)*len(t.cols)]
		for j, c := range t.cols {
			row[j] = t.in.Decode(c[i])
		}
		out[i] = row
	}
	return out
}

// Sorted returns the tuples in lexicographic order, for deterministic
// output.
func (t *Table) Sorted() []value.Tuple {
	out := t.Tuples()
	value.SortTuples(out)
	return out
}

// ColPos returns the position of a column label, or -1.
func (t *Table) ColPos(label string) int {
	for i, c := range t.Cols {
		if c == label {
			return i
		}
	}
	return -1
}

// String renders the table (sorted) for debugging and golden tests.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s]\n", strings.Join(t.Cols, ", "))
	for _, r := range t.Sorted() {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Equal reports whether two tables hold the same tuple sets (columns are
// compared positionally by content only).
func (t *Table) Equal(u *Table) bool {
	if t.n != u.n || len(t.cols) != len(u.cols) {
		return t.n == u.n && t.n == 0
	}
	if t.n == 0 {
		return true
	}
	if len(t.cols) == 0 {
		return true // both the singleton {()}
	}
	u.ensureSet()
	strs, bigs := t.in.LookupRemap(u.in)
	vals := make([]value.Handle, len(t.cols))
	for i := 0; i < t.n; i++ {
		for j, c := range t.cols {
			rv := c[i].Remap(strs, bigs)
			if rv == value.MissingHandle {
				return false // a value u has never seen
			}
			vals[j] = rv
		}
		if !u.lookupRow(vals) {
			return false
		}
	}
	return true
}
