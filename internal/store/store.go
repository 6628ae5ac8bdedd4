// Package store is the relational storage substrate: an in-memory database
// holding relation instances, the attribute-based indices I_A built for an
// access schema (Section 7), the bounded fetch operation they support, and
// bounded incremental maintenance of ⟨A, I_A⟩ under tuple insertions and
// deletions (Proposition 12). Every data access is counted so experiments
// can report P(D_Q) = |D_Q|/|D| exactly.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/value"
)

// Counter tallies tuple accesses. Fetched counts tuples returned by index
// fetches (the bounded path); Scanned counts tuples read by full scans (the
// conventional path). Counters are atomic so concurrent readers may share a
// DB.
type Counter struct {
	Fetched int64
	Scanned int64
}

// Total returns all tuples accessed.
func (c Counter) Total() int64 { return c.Fetched + c.Scanned }

// DB is an in-memory database instance of a relational schema.
//
// A DB is safe for concurrent use: tuple reads (Scan, Rows, Fetch, Size)
// take a shared lock while mutations (Insert, Delete, index builds and
// drops) take an exclusive one, so any number of bounded-plan executions
// can proceed concurrently with each other and are serialized only against
// writes. Indices are maintained incrementally inside the same critical
// section as the base relation (Proposition 12), so readers never observe
// a relation/index mismatch.
type DB struct {
	Schema  ra.Schema
	mu      sync.RWMutex
	rels    map[string]*Relation
	indexes map[string]*Index
	counter Counter
}

// NewDB creates an empty database for schema s.
func NewDB(s ra.Schema) *DB {
	db := &DB{Schema: s, rels: map[string]*Relation{}, indexes: map[string]*Index{}}
	for name, attrs := range s {
		db.rels[name] = newRelation(name, attrs)
	}
	return db
}

// Relation is one stored relation instance with set semantics.
type Relation struct {
	Name  string
	Attrs []string
	pos   map[string]int
	rows  map[string]value.Tuple
}

func newRelation(name string, attrs []string) *Relation {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return &Relation{Name: name, Attrs: attrs, pos: pos, rows: map[string]value.Tuple{}}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Positions maps attribute names to column positions.
func (r *Relation) Positions(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.pos[a]
		if !ok {
			return nil, fmt.Errorf("store: relation %s has no attribute %s", r.Name, a)
		}
		out[i] = p
	}
	return out, nil
}

// Rel returns the named relation. The returned handle is a live view: its
// Attrs and Positions are immutable and safe to use concurrently, but Len
// reads the mutable row set and is only meaningful while no writer runs.
func (db *DB) Rel(name string) (*Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rel(name)
}

// rel is Rel without locking, for use inside critical sections.
func (db *DB) rel(name string) (*Relation, error) {
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	return r, nil
}

// Size returns |D|: the total number of stored tuples.
func (db *DB) Size() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, r := range db.rels {
		n += int64(len(r.rows))
	}
	return n
}

// Counter returns a snapshot of the access counters.
func (db *DB) Counter() Counter {
	return Counter{
		Fetched: atomic.LoadInt64(&db.counter.Fetched),
		Scanned: atomic.LoadInt64(&db.counter.Scanned),
	}
}

// ResetCounter zeroes the access counters.
func (db *DB) ResetCounter() {
	atomic.StoreInt64(&db.counter.Fetched, 0)
	atomic.StoreInt64(&db.counter.Scanned, 0)
}

// Insert adds tuple t to relation rel, maintaining all indices on rel
// incrementally in O(N_A) time (Proposition 12). Duplicate inserts are
// no-ops. It returns true when the tuple was new.
func (db *DB) Insert(rel string, t value.Tuple) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(rel, t)
}

// insertLocked is Insert inside the write critical section.
func (db *DB) insertLocked(rel string, t value.Tuple) (bool, error) {
	r, err := db.rel(rel)
	if err != nil {
		return false, err
	}
	if len(t) != len(r.Attrs) {
		return false, fmt.Errorf("store: %s expects %d values, got %d", rel, len(r.Attrs), len(t))
	}
	key := t.Key()
	if _, ok := r.rows[key]; ok {
		return false, nil
	}
	r.rows[key] = t.Clone()
	for _, idx := range db.indexes {
		if idx.Con.Rel == rel {
			idx.insert(t)
		}
	}
	return true, nil
}

// Delete removes tuple t from relation rel, maintaining indices
// incrementally. It returns true when the tuple existed.
func (db *DB) Delete(rel string, t value.Tuple) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.deleteLocked(rel, t)
}

// deleteLocked is Delete inside the write critical section.
func (db *DB) deleteLocked(rel string, t value.Tuple) (bool, error) {
	r, err := db.rel(rel)
	if err != nil {
		return false, err
	}
	key := t.Key()
	if _, ok := r.rows[key]; !ok {
		return false, nil
	}
	delete(r.rows, key)
	for _, idx := range db.indexes {
		if idx.Con.Rel == rel {
			idx.remove(t)
		}
	}
	return true, nil
}

// TupleOp is one tuple write in an ApplyBatch batch.
type TupleOp struct {
	// Rel is the target relation.
	Rel string
	// T is the tuple to insert or delete.
	T value.Tuple
	// Del selects delete (true) or insert (false).
	Del bool
}

// ApplyBatch applies ops in order under a single acquisition of the write
// lock, maintaining every index incrementally exactly like Insert and
// Delete, and reports per op whether it changed the store: changed[i] is
// false for an insert of a present tuple or a delete of an absent one
// (set-semantics no-ops) and for a failed op. One call costs one
// exclusive lock round regardless of batch size, so batched appliers (the
// replica apply queue of internal/shard) block readers once per batch
// instead of once per tuple; the engine's write path needs the flags
// because a no-op write must not emit a view delta.
//
// Every op is attempted even after a failure (ops are independent
// per-tuple writes, and a batched applier must converge on the applicable
// suffix); the first error is returned. A durable engine logs exactly the
// ops that pass the same checks, so replaying its log rebuilds this store.
func (db *DB) ApplyBatch(ops []TupleOp) ([]bool, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	changed := make([]bool, len(ops))
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for i, op := range ops {
		var err error
		if op.Del {
			changed[i], err = db.deleteLocked(op.Rel, op.T)
		} else {
			changed[i], err = db.insertLocked(op.Rel, op.T)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return changed, first
}

// BulkLoad inserts many tuples into rel.
func (db *DB) BulkLoad(rel string, ts []value.Tuple) error {
	for _, t := range ts {
		if _, err := db.Insert(rel, t); err != nil {
			return err
		}
	}
	return nil
}

// Scan returns all tuples of rel, charging a full-scan access for each —
// the conventional evaluation path.
func (db *DB) Scan(rel string) ([]value.Tuple, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, err := db.rel(rel)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&db.counter.Scanned, int64(len(r.rows)))
	out := make([]value.Tuple, 0, len(r.rows))
	for _, t := range r.rows {
		out = append(out, t)
	}
	return out, nil
}

// Has reports whether relation rel currently contains tuple t, without
// charging an access. It is the presence probe the shard rebalancer uses
// to decide, under a write-ordering lock, whether a row snapshot is still
// live at its source before copying it to a new owner.
func (db *DB) Has(rel string, t value.Tuple) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, err := db.rel(rel)
	if err != nil {
		return false, err
	}
	_, ok := r.rows[t.Key()]
	return ok, nil
}

// Rows returns the tuples of rel without charging accesses (used by
// loaders, validators and tests).
func (db *DB) Rows(rel string) ([]value.Tuple, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, err := db.rel(rel)
	if err != nil {
		return nil, err
	}
	out := make([]value.Tuple, 0, len(r.rows))
	for _, t := range r.rows {
		out = append(out, t)
	}
	return out, nil
}

// ScanFunc calls fn for every tuple of rel under one shared lock, without
// copying the relation, until fn returns false. It returns the number of
// tuples visited, each charged as a full-scan access. The tuples are the
// stored ones: fn must treat them as read-only and must not call back into
// db (a queued writer would deadlock the re-entrant read lock).
func (db *DB) ScanFunc(rel string, fn func(t value.Tuple) bool) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, err := db.rel(rel)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range r.rows {
		n++
		if !fn(t) {
			break
		}
	}
	atomic.AddInt64(&db.counter.Scanned, int64(n))
	return n, nil
}

// --- indices --------------------------------------------------------------

// Index is the attribute-based index for one access constraint: a partial
// table π_{XY}(D_R) hashed on X. Buckets hold distinct XY projections with
// reference counts so deletions maintain them exactly.
type Index struct {
	Con    access.Constraint
	cols   []string // X then Y, de-duplicated (plan.IndexCols layout)
	xpos   []int    // positions of X in the base relation
	cpos   []int    // positions of cols in the base relation
	bucket map[string]map[string]*refRow
}

type refRow struct {
	t value.Tuple
	n int
}

// BuildIndex constructs the index for constraint c from the current
// instance, in O(|D_R|) time, and registers it for maintenance.
func (db *DB) BuildIndex(c access.Constraint) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.buildIndex(c)
}

func (db *DB) buildIndex(c access.Constraint) (*Index, error) {
	if err := c.Validate(db.Schema); err != nil {
		return nil, err
	}
	r, err := db.rel(c.Rel)
	if err != nil {
		return nil, err
	}
	cols := plan.IndexCols(c)
	xpos, err := r.Positions(c.X)
	if err != nil {
		return nil, err
	}
	cpos, err := r.Positions(cols)
	if err != nil {
		return nil, err
	}
	idx := &Index{Con: c, cols: cols, xpos: xpos, cpos: cpos, bucket: map[string]map[string]*refRow{}}
	for _, t := range r.rows {
		idx.insert(t)
	}
	db.indexes[c.Key()] = idx
	return idx, nil
}

// BuildIndexes builds indices for every constraint of A.
func (db *DB) BuildIndexes(A *access.Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, c := range A.Constraints {
		if _, err := db.buildIndex(c); err != nil {
			return err
		}
	}
	return nil
}

// DropIndexes removes all indices (for experiments varying ‖A‖).
func (db *DB) DropIndexes() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.indexes = map[string]*Index{}
}

// DropIndex removes the index of constraint c, reporting whether it
// existed. Plans built against c fail their fetches afterwards; callers
// maintaining a plan cache must invalidate before dropping.
func (db *DB) DropIndex(c access.Constraint) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.indexes[c.Key()]; !ok {
		return false
	}
	delete(db.indexes, c.Key())
	return true
}

// Indexes returns the registered indices sorted by constraint key.
func (db *DB) Indexes() []*Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Index, len(keys))
	for i, k := range keys {
		out[i] = db.indexes[k]
	}
	return out
}

func (idx *Index) insert(t value.Tuple) {
	xk := value.KeyOf(t, idx.xpos)
	proj := t.Project(idx.cpos)
	pk := proj.Key()
	b := idx.bucket[xk]
	if b == nil {
		b = map[string]*refRow{}
		idx.bucket[xk] = b
	}
	if rr, ok := b[pk]; ok {
		rr.n++
	} else {
		b[pk] = &refRow{t: proj, n: 1}
	}
}

func (idx *Index) remove(t value.Tuple) {
	xk := value.KeyOf(t, idx.xpos)
	b := idx.bucket[xk]
	if b == nil {
		return
	}
	pk := t.Project(idx.cpos).Key()
	if rr, ok := b[pk]; ok {
		rr.n--
		if rr.n <= 0 {
			delete(b, pk)
			if len(b) == 0 {
				delete(idx.bucket, xk)
			}
		}
	}
}

// Entries returns the number of distinct index entries (the index size
// measure reported in Exp-1(IV)).
func (idx *Index) Entries() int64 {
	var n int64
	for _, b := range idx.bucket {
		n += int64(len(b))
	}
	return n
}

// Cols returns the payload column layout (X then Y, de-duplicated).
func (idx *Index) Cols() []string { return idx.cols }

// IndexEntries sums Entries over all indices: |I_A|.
func (db *DB) IndexEntries() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, idx := range db.indexes {
		n += idx.Entries()
	}
	return n
}

// IndexEntriesFor sums Entries over the indices built on relation rel.
// The sharded router uses it to assemble a logical |I_A| without a
// full-copy engine: broadcast relations are counted on one shard,
// partitioned ones summed across the shards that split them.
func (db *DB) IndexEntriesFor(rel string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, idx := range db.indexes {
		if idx.Con.Rel == rel {
			n += idx.Entries()
		}
	}
	return n
}

// Fetch performs fetch(X ∈ {x}, R, Y) via the index for constraint c:
// it returns the distinct XY projections for the given X value, charging
// one access per returned tuple (at most N). The index must have been
// built. The returned tuples use the plan.IndexCols(c) column layout.
func (db *DB) Fetch(c access.Constraint, xvals value.Tuple) ([]value.Tuple, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	idx, ok := db.indexes[c.Key()]
	if !ok {
		return nil, fmt.Errorf("store: no index for %s", c)
	}
	if len(xvals) != len(c.X) {
		return nil, fmt.Errorf("store: fetch via %s expects %d X values, got %d", c, len(c.X), len(xvals))
	}
	b := idx.bucket[xvals.Key()]
	if len(b) == 0 {
		// Probing an absent key still touches the index once.
		atomic.AddInt64(&db.counter.Fetched, 1)
		return nil, nil
	}
	out := make([]value.Tuple, 0, len(b))
	for _, rr := range b {
		out = append(out, rr.t)
	}
	atomic.AddInt64(&db.counter.Fetched, int64(len(out)))
	return out, nil
}

// CoveringIndex picks a built index on rel that answers
// π_need(σ_{bound = constants}(rel)) from a single bucket: its X is a
// subset of the constant-bound attributes and X ∪ Y contains every needed
// one. Among several it prefers the tightest cardinality bound N (ties by
// constraint key, so the choice is deterministic). ok is false when no
// index qualifies and the caller has to scan.
func (db *DB) CoveringIndex(rel string, bound, need []string) (c access.Constraint, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for key, idx := range db.indexes {
		if idx.Con.Rel != rel || !subset(idx.Con.X, bound) || !subset(need, idx.cols) {
			continue
		}
		if !ok || idx.Con.N < c.N || (idx.Con.N == c.N && key < c.Key()) {
			c, ok = idx.Con, true
		}
	}
	return c, ok
}

func subset(xs, of []string) bool {
	for _, x := range xs {
		if !slices.Contains(of, x) {
			return false
		}
	}
	return true
}

// FetchCounted visits the bucket of X value xvals in the index for c: fn
// receives every distinct XY projection (plan.IndexCols(c) layout) with its
// reference count — the number of base tuples that project onto it, which
// is exactly the derivation count of that row in π_XY(σ_{X=xvals}(R)) —
// until it returns false. It returns the number of entries visited, charged
// like Fetch (an absent key still touches the index once). The tuples are
// the index's own: fn must treat them as read-only and must not call back
// into db.
func (db *DB) FetchCounted(c access.Constraint, xvals value.Tuple, fn func(t value.Tuple, n int) bool) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	idx, ok := db.indexes[c.Key()]
	if !ok {
		return 0, fmt.Errorf("store: no index for %s", c)
	}
	if len(xvals) != len(c.X) {
		return 0, fmt.Errorf("store: fetch via %s expects %d X values, got %d", c, len(c.X), len(xvals))
	}
	visited := 0
	for _, rr := range idx.bucket[xvals.Key()] {
		visited++
		if !fn(rr.t, rr.n) {
			break
		}
	}
	atomic.AddInt64(&db.counter.Fetched, int64(max(visited, 1)))
	return visited, nil
}

// FetchBatch performs Fetch for every X tuple in xs under one shared lock,
// invoking emit(i, rows) for each probe in order. The rows slice is reused
// between probes — callers must consume it inside emit. Access accounting
// is identical to len(xs) individual Fetch calls (one charge for an empty
// probe, one per returned tuple otherwise), added once at the end. The
// vectorized fetch operator uses it to amortize lock and key-encoding costs
// over a whole batch of distinct X values.
func (db *DB) FetchBatch(c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	idx, ok := db.indexes[c.Key()]
	if !ok {
		return fmt.Errorf("store: no index for %s", c)
	}
	var (
		buf     []byte
		scratch []value.Tuple
		charged int64
	)
	for i, xvals := range xs {
		if len(xvals) != len(c.X) {
			return fmt.Errorf("store: fetch via %s expects %d X values, got %d", c, len(c.X), len(xvals))
		}
		buf = buf[:0]
		for _, v := range xvals {
			buf = value.AppendKey(buf, v)
		}
		b := idx.bucket[string(buf)] // no-alloc map probe
		if len(b) == 0 {
			charged++ // probing an absent key still touches the index once
			emit(i, nil)
			continue
		}
		scratch = scratch[:0]
		for _, rr := range b {
			scratch = append(scratch, rr.t)
		}
		charged += int64(len(scratch))
		emit(i, scratch)
	}
	atomic.AddInt64(&db.counter.Fetched, charged)
	return nil
}

// --- constraint validation ----------------------------------------------

// Satisfies verifies that the current instance satisfies constraint c,
// i.e. every X value has at most N distinct Y projections.
func (db *DB) Satisfies(c access.Constraint) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	idx, ok := db.indexes[c.Key()]
	if !ok {
		var err error
		idx, err = db.buildIndex(c)
		if err != nil {
			return err
		}
	}
	for xk, b := range idx.bucket {
		if len(b) > c.N {
			return fmt.Errorf("store: %s violated: X key %q has %d distinct Y values", c, xk, len(b))
		}
	}
	return nil
}

// SatisfiesAll verifies D ⊨ A.
func (db *DB) SatisfiesAll(A *access.Schema) error {
	for _, c := range A.Constraints {
		if err := db.Satisfies(c); err != nil {
			return err
		}
	}
	return nil
}
