// Package ivm maintains materialized answers for hot queries under tuple
// writes — incremental view maintenance in the counting style of
// Berkholz/Keppeler/Schweikardt's answer-maintenance setting. A View
// mirrors the normalized RA tree of one query with counted intermediate
// tables and applies per-operator delta rules (selection, projection,
// product, union, difference) to every tuple write, so a repeated read of
// a hot fingerprint becomes a pointer load of the last published answer
// snapshot instead of a plan execution. The Manager decides which
// fingerprints earn a view (repeat count × measured execution cost),
// bounds how many live at once, and — with the budget full — admits a
// candidate only when its decayed read frequency × cost is more than
// twice that of the resident it displaces (a TinyLFU-style gate over a
// count-min sketch); it purges everything on access-schema generation
// bumps.
package ivm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// ErrViewTooLarge aborts a materialization (or drops a live view) whose
// counted tables exceed the configured row cap: maintaining it would cost
// more memory and delta work than re-executing the plan.
var ErrViewTooLarge = errors.New("ivm: materialization exceeds the row cap")

// crow is one counted tuple: n is the number of derivations of t at this
// node. Membership under set semantics is n > 0; counts may pass through
// zero transiently while a delta chain is in flight and the entry is
// dropped the moment it lands on exactly zero.
type crow struct {
	t value.Tuple
	n int64
}

// drow is one delta row: the tuple and its signed derivation-count change.
type drow struct {
	t value.Tuple
	n int64
}

// node mirrors one operator of the (pushdown-rewritten) query tree. Only
// nodes whose counted table is ever read again — the root, and children of
// Product (sibling join scans) and Diff (membership counts) — materialize
// rows; the rest transform deltas in flight and store nothing.
type node struct {
	q        ra.Query
	parent   *node
	childIdx int
	children []*node
	// attrs is the positional output scope of this node.
	attrs []ra.Attr
	// rows is the counted table, nil when this node stores nothing.
	rows map[string]*crow
	// preds caches the selection condition (Select nodes).
	preds []ra.Pred
	// pos caches projection positions into the child scope (Project nodes).
	pos []int
	// jkey, set on the children of a Product that sits directly under a
	// Select whose attribute equalities link the two operands, holds this
	// child's half of the join key (positions into its scope, pair-ordered
	// with the sibling's); jidx indexes rows by that key so the delta rule
	// probes matching sibling rows instead of scanning the table. The key
	// may cover only some predicates — the Select above re-filters, so a
	// partial key is sound.
	jkey []int
	jidx map[string]map[string]*crow
	// scan is set on the top node of a leaf pattern π(σ(R)): the whole
	// pattern is seeded by one bounded read of R instead of bottom-up.
	scan *leafScan
}

// buildIndex (re)builds the join-key index over the node's counted table.
func (n *node) buildIndex() {
	n.jidx = make(map[string]map[string]*crow)
	for k, c := range n.rows {
		n.indexAdd(k, c)
	}
}

func (n *node) indexAdd(k string, c *crow) {
	jk := c.t.Project(n.jkey).Key()
	b := n.jidx[jk]
	if b == nil {
		b = map[string]*crow{}
		n.jidx[jk] = b
	}
	b[k] = c
}

func (n *node) indexDel(k string, t value.Tuple) {
	jk := t.Project(n.jkey).Key()
	if b := n.jidx[jk]; b != nil {
		delete(b, k)
		if len(b) == 0 {
			delete(n.jidx, jk)
		}
	}
}

// View is the materialized answer of one normalized query plus the counted
// node tables needed to maintain it under tuple writes. Apply is
// serialized by the view's own mutex; the published answer snapshot is an
// immutable table swapped atomically. Publication is lazy: a root-changing
// delta only marks the snapshot dirty, and the next reader rebuilds it
// once — so a burst of writes between two reads pays one O(answer)
// rebuild instead of one per write.
type View struct {
	mu     sync.Mutex
	root   *node
	leaves map[string][]*node // base relation → leaf occurrences
	rels   []string           // distinct base relations, for registration
	// maxRows caps the total counted rows across materialized nodes
	// (<= 0 = unlimited); nrows is the current total.
	maxRows int
	nrows   int
	cols    []string
	// seedFetched / seedScanned count the tuples Seed read through index
	// buckets and through relation scans.
	seedFetched, seedScanned int64
	// published is the last consistent answer snapshot. It is read-only by
	// contract: Serve hands it to callers without copying. dirty means root
	// membership changed since it was built; Published refreshes it then.
	published atomic.Pointer[exec.Table]
	dirty     atomic.Bool
}

// Build compiles the normalized query norm into an unseeded view: selection
// and projection pushdown, validation and the operator tree with its scopes,
// join keys and leaf scans. It reads no data, so it needs no exclusion
// against writers; the view serves nothing until Seed ran. cols labels the
// published answer columns (the executed result's labels, so a materialized
// hit is indistinguishable from a plan execution); maxRows caps the total
// counted rows (<= 0 = unlimited).
func Build(norm ra.Query, s ra.Schema, cols []string, maxRows int) (*View, error) {
	q := prune(pushdown(ra.Clone(norm), s), nil, s)
	if err := ra.Validate(q, s); err != nil {
		// A pushdown bug must surface as a fallback, never a wrong answer.
		return nil, fmt.Errorf("ivm: pushdown broke the query: %w", err)
	}
	v := &View{leaves: map[string][]*node{}, maxRows: maxRows}
	root, err := v.build(q, s, nil, 0)
	if err != nil {
		return nil, err
	}
	v.root = root
	setJoinKeys(root)
	if err := setScans(root, s); err != nil {
		return nil, err
	}
	for rel := range v.leaves {
		v.rels = append(v.rels, rel)
	}
	if len(cols) == len(root.attrs) {
		v.cols = cols
	} else {
		v.cols = make([]string, len(root.attrs))
		for i, a := range root.attrs {
			v.cols[i] = a.String()
		}
	}
	return v, nil
}

// Seed fills the counted tables of a built view from the current contents
// of db and publishes the first answer. Every leaf is read once, through an
// index bucket where the access schema bounds it and by a filtered scan
// otherwise. The caller must exclude concurrent writes to db from the start
// of Seed until the view is registered for deltas — the engine holds its
// materialization lock exclusively — or the initial read would race the
// delta stream. A view whose Seed failed must be discarded.
func (v *View) Seed(db *store.DB) error {
	if _, err := v.eval(v.root, db); err != nil {
		return err
	}
	v.publishLocked()
	return nil
}

// BaseRels returns the distinct base relations the view depends on.
func (v *View) BaseRels() []string { return v.rels }

// Published returns the current answer snapshot, rebuilding it first if
// writes changed root membership since the last read. The table is shared
// and must be treated as read-only. A write that completed before this
// call is always reflected (it set dirty before returning); a concurrent
// one may be ordered either side of the snapshot.
func (v *View) Published() *exec.Table {
	if v.dirty.Load() {
		v.mu.Lock()
		if v.dirty.Load() {
			v.publishLocked()
			v.dirty.Store(false)
		}
		v.mu.Unlock()
	}
	return v.published.Load()
}

// Rows returns the total counted rows held across materialized nodes.
func (v *View) Rows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nrows
}

// build constructs the node tree for q, computing scopes and operator
// caches. Materialized tables are allocated lazily by eval.
func (v *View) build(q ra.Query, s ra.Schema, parent *node, idx int) (*node, error) {
	attrs, err := ra.OutAttrs(q, s)
	if err != nil {
		return nil, err
	}
	n := &node{q: q, parent: parent, childIdx: idx, attrs: attrs}
	for i, c := range q.Children() {
		cn, err := v.build(c, s, n, i)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, cn)
	}
	switch t := q.(type) {
	case *ra.Relation:
		v.leaves[t.Base] = append(v.leaves[t.Base], n)
	case *ra.Select:
		n.preds = t.Preds
	case *ra.Project:
		n.pos = make([]int, len(t.Attrs))
		for i, a := range t.Attrs {
			p := exec.AttrIndex(n.children[0].attrs, a)
			if p < 0 {
				return nil, fmt.Errorf("ivm: projection attribute %s out of scope", a)
			}
			n.pos[i] = p
		}
	}
	return n, nil
}

// setJoinKeys walks the built tree and, for every Product directly under
// a Select, extracts the equality atoms that link the two operands into
// pair-ordered join-key positions on the children. Predicates the key
// cannot express stay with the Select, which filters above the product
// either way.
func setJoinKeys(n *node) {
	if _, ok := n.q.(*ra.Product); ok && n.parent != nil {
		if _, sel := n.parent.q.(*ra.Select); sel {
			l, r := n.children[0], n.children[1]
			var lk, rk []int
			for _, pr := range n.parent.preds {
				eq, ok := pr.(ra.EqAttr)
				if !ok {
					continue
				}
				li, ri := exec.AttrIndex(l.attrs, eq.L), exec.AttrIndex(r.attrs, eq.R)
				if li < 0 || ri < 0 {
					li, ri = exec.AttrIndex(l.attrs, eq.R), exec.AttrIndex(r.attrs, eq.L)
				}
				if li >= 0 && ri >= 0 {
					lk = append(lk, li)
					rk = append(rk, ri)
				}
			}
			if len(lk) > 0 {
				l.jkey, r.jkey = lk, rk
			}
		}
	}
	for _, c := range n.children {
		setJoinKeys(c)
	}
}

// needsRows reports whether a node's counted table is read after the
// initial build: the root (it is the answer), Product children (the
// sibling scan of the join delta rule) and Diff children (membership
// counts for the flip rule).
func (n *node) needsRows() bool {
	if n.parent == nil {
		return true
	}
	switch n.parent.q.(type) {
	case *ra.Product, *ra.Diff:
		return true
	}
	return false
}

// eval computes the counted table of n — a leaf pattern by one bounded read
// of the store, an operator above the leaves from its children's tables —
// retaining it on nodes that need it and charging every retained or
// transient table against the row cap.
func (v *View) eval(n *node, db *store.DB) (map[string]*crow, error) {
	var (
		m   map[string]*crow
		err error
	)
	if n.scan != nil {
		m, err = v.seedLeaf(n.scan, db)
	} else {
		m, err = v.evalOp(n, db)
	}
	if err != nil {
		return nil, err
	}
	if v.maxRows > 0 && len(m) > v.maxRows {
		return nil, ErrViewTooLarge
	}
	if n.needsRows() {
		n.rows = m
		if n.jkey != nil {
			n.buildIndex()
		}
		v.nrows += len(m)
		if v.maxRows > 0 && v.nrows > v.maxRows {
			return nil, ErrViewTooLarge
		}
	}
	return m, nil
}

// evalOp computes the counted table of an operator node from the tables of
// its children.
func (v *View) evalOp(n *node, db *store.DB) (map[string]*crow, error) {
	var m map[string]*crow
	switch n.q.(type) {
	case *ra.Select:
		in, err := v.eval(n.children[0], db)
		if err != nil {
			return nil, err
		}
		m = make(map[string]*crow)
		for k, r := range in {
			ok, err := exec.PredsHold(r.t, n.children[0].attrs, n.preds)
			if err != nil {
				return nil, err
			}
			if ok {
				m[k] = &crow{t: r.t, n: r.n}
			}
		}
	case *ra.Project:
		in, err := v.eval(n.children[0], db)
		if err != nil {
			return nil, err
		}
		m = make(map[string]*crow)
		for _, r := range in {
			p := r.t.Project(n.pos)
			k := p.Key()
			if c := m[k]; c != nil {
				c.n += r.n
			} else {
				m[k] = &crow{t: p, n: r.n}
			}
		}
	case *ra.Product:
		l, err := v.eval(n.children[0], db)
		if err != nil {
			return nil, err
		}
		r, err := v.eval(n.children[1], db)
		if err != nil {
			return nil, err
		}
		m = make(map[string]*crow)
		add := func(a, b *crow) error {
			t := concat(a.t, b.t)
			k := t.Key()
			if c := m[k]; c != nil {
				c.n += a.n * b.n
			} else {
				m[k] = &crow{t: t, n: a.n * b.n}
			}
			if v.maxRows > 0 && len(m) > v.maxRows {
				return ErrViewTooLarge
			}
			return nil
		}
		lc, rc := n.children[0], n.children[1]
		if lc.jkey != nil {
			// Hash join on the extracted key: pairs it skips fail the
			// parent Select's equalities and would die there anyway.
			buckets := make(map[string][]*crow, len(r))
			for _, b := range r {
				jk := b.t.Project(rc.jkey).Key()
				buckets[jk] = append(buckets[jk], b)
			}
			for _, a := range l {
				for _, b := range buckets[a.t.Project(lc.jkey).Key()] {
					if err := add(a, b); err != nil {
						return nil, err
					}
				}
			}
		} else {
			for _, a := range l {
				for _, b := range r {
					if err := add(a, b); err != nil {
						return nil, err
					}
				}
			}
		}
	case *ra.Union:
		l, err := v.eval(n.children[0], db)
		if err != nil {
			return nil, err
		}
		r, err := v.eval(n.children[1], db)
		if err != nil {
			return nil, err
		}
		m = l
		for k, b := range r {
			if c := m[k]; c != nil {
				c.n += b.n
			} else {
				m[k] = &crow{t: b.t, n: b.n}
			}
		}
	case *ra.Diff:
		l, err := v.eval(n.children[0], db)
		if err != nil {
			return nil, err
		}
		r, err := v.eval(n.children[1], db)
		if err != nil {
			return nil, err
		}
		m = make(map[string]*crow)
		for k, a := range l {
			if a.n <= 0 {
				continue
			}
			if b := r[k]; b == nil || b.n <= 0 {
				m[k] = &crow{t: a.t, n: 1}
			}
		}
	default:
		return nil, fmt.Errorf("ivm: no delta rule for node %T", n.q)
	}
	return m, nil
}

// Apply folds one already-applied store write into the view. The caller
// must guarantee the write actually changed the store (a duplicate insert
// or a missing delete must not reach here) and that writes to the same
// tuple arrive in store order; the engine's per-tuple write stripes
// provide both. A non-nil error means the view can no longer be
// maintained and must be dropped.
func (v *View) Apply(op store.TupleOp) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	sign := int64(1)
	if op.Del {
		sign = -1
	}
	changed := false
	// Occurrences of the same base relation propagate sequentially: each
	// leaf's delta updates the node tables in place before the next leaf
	// fires, which is exactly the chain rule for self-joins.
	for _, leaf := range v.leaves[op.Rel] {
		c, err := v.propagate(leaf, []drow{{t: op.T, n: sign}})
		if err != nil {
			return err
		}
		changed = changed || c
	}
	if changed {
		v.dirty.Store(true)
	}
	return nil
}

// propagate walks a delta from one node up to the root, applying it to
// every materialized table on the way and transforming it through each
// parent operator. It reports whether a non-empty delta reached the root.
func (v *View) propagate(n *node, d []drow) (bool, error) {
	for len(d) > 0 {
		if n.rows != nil {
			if err := v.applyRows(n, d); err != nil {
				return false, err
			}
		}
		if n.parent == nil {
			return true, nil
		}
		var err error
		d, err = v.transform(n.parent, n.childIdx, d)
		if err != nil {
			return false, err
		}
		n = n.parent
	}
	return false, nil
}

// applyRows folds a delta into a node's counted table.
func (v *View) applyRows(n *node, d []drow) error {
	for _, dr := range d {
		k := dr.t.Key()
		c := n.rows[k]
		if c == nil {
			c = &crow{t: dr.t, n: dr.n}
			n.rows[k] = c
			if n.jidx != nil {
				n.indexAdd(k, c)
			}
			v.nrows++
			if v.maxRows > 0 && v.nrows > v.maxRows {
				return ErrViewTooLarge
			}
			continue
		}
		c.n += dr.n
		if c.n == 0 {
			delete(n.rows, k)
			if n.jidx != nil {
				n.indexDel(k, c.t)
			}
			v.nrows--
		}
	}
	return nil
}

// transform maps a delta arriving from child idx into parent p's scope —
// the per-operator delta rules.
func (v *View) transform(p *node, idx int, d []drow) ([]drow, error) {
	switch p.q.(type) {
	case *ra.Select:
		out := d[:0:0]
		for _, dr := range d {
			ok, err := exec.PredsHold(dr.t, p.children[0].attrs, p.preds)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, dr)
			}
		}
		return out, nil
	case *ra.Project:
		if len(d) == 1 {
			// The common delta is one row, which has nothing to merge with.
			return []drow{{t: d[0].t.Project(p.pos), n: d[0].n}}, nil
		}
		merged := map[string]*drow{}
		var order []string
		for _, dr := range d {
			t := dr.t.Project(p.pos)
			k := t.Key()
			if m := merged[k]; m != nil {
				m.n += dr.n
			} else {
				merged[k] = &drow{t: t, n: dr.n}
				order = append(order, k)
			}
		}
		out := make([]drow, 0, len(order))
		for _, k := range order {
			if m := merged[k]; m.n != 0 {
				out = append(out, *m)
			}
		}
		return out, nil
	case *ra.Product:
		// Δ(L×R) from one side is the delta joined against the sibling's
		// current table: the delta entered through exactly one leaf, so the
		// sibling is untouched by it and "current" is both its old and new
		// state — the bilinear rule needs no old-value bookkeeping.
		sib, me := p.children[1-idx], p.children[idx]
		if sib.rows == nil {
			return nil, fmt.Errorf("ivm: product sibling not materialized")
		}
		merged := map[string]*drow{}
		var order []string
		for _, dr := range d {
			// Probe only join-key matches when the key exists; skipped
			// sibling rows fail the parent Select's equalities anyway.
			pool := sib.rows
			if sib.jidx != nil && me.jkey != nil {
				pool = sib.jidx[dr.t.Project(me.jkey).Key()]
			}
			for _, b := range pool {
				var t value.Tuple
				if idx == 0 {
					t = concat(dr.t, b.t)
				} else {
					t = concat(b.t, dr.t)
				}
				k := t.Key()
				if m := merged[k]; m != nil {
					m.n += dr.n * b.n
				} else {
					merged[k] = &drow{t: t, n: dr.n * b.n}
					order = append(order, k)
				}
			}
		}
		out := make([]drow, 0, len(order))
		for _, k := range order {
			if m := merged[k]; m.n != 0 {
				out = append(out, *m)
			}
		}
		return out, nil
	case *ra.Union:
		// Counts add; operand scopes are positionally compatible, so the
		// delta passes through unchanged.
		return d, nil
	case *ra.Diff:
		// Membership flips: out(t) = 1 iff count_L(t) > 0 ∧ count_R(t) = 0.
		// The child's table is already updated, so its pre-delta count is
		// (new − δ); emit ±1 exactly when membership changed.
		l, r := p.children[0], p.children[1]
		if l.rows == nil || r.rows == nil {
			return nil, fmt.Errorf("ivm: diff children not materialized")
		}
		out := d[:0:0]
		for _, dr := range d {
			k := dr.t.Key()
			var before, after bool
			if idx == 0 {
				newL := count(l, k)
				rIn := count(r, k) > 0
				before = newL-dr.n > 0 && !rIn
				after = newL > 0 && !rIn
			} else {
				lIn := count(l, k) > 0
				newR := count(r, k)
				before = lIn && newR-dr.n <= 0
				after = lIn && newR <= 0
			}
			if before == after {
				continue
			}
			// The emitted tuple must carry the LEFT operand's scope; the
			// operands are positionally compatible, so the delta tuple's
			// values are already correct.
			if after {
				out = append(out, drow{t: dr.t, n: 1})
			} else {
				out = append(out, drow{t: dr.t, n: -1})
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("ivm: no delta rule for node %T", p.q)
	}
}

func count(n *node, key string) int64 {
	if c := n.rows[key]; c != nil {
		return c.n
	}
	return 0
}

// publishLocked swaps in a fresh immutable answer snapshot built from the
// root's positive-count rows. Called with v.mu held.
func (v *View) publishLocked() {
	t := exec.NewTableSized(v.cols, len(v.root.rows))
	for _, c := range v.root.rows {
		if c.n > 0 {
			t.Add(c.t)
		}
	}
	v.published.Store(t)
}

func concat(a, b value.Tuple) value.Tuple {
	t := make(value.Tuple, 0, len(a)+len(b))
	t = append(t, a...)
	return append(t, b...)
}

// pushdown sinks every selection atom to the lowest node whose scope
// covers it: constant predicates land on their relation occurrence (so
// leaf tables and leaf deltas are pre-filtered) and join predicates land
// directly above their lowest product. Atoms never sink through Union or
// Diff (the right operand renames attributes positionally) — they stay
// put there, which is always sound.
func pushdown(q ra.Query, s ra.Schema) ra.Query {
	switch t := q.(type) {
	case *ra.Select:
		out := pushdown(t.In, s)
		for _, p := range t.Preds {
			out = sink(out, p, s)
		}
		return out
	case *ra.Project:
		return &ra.Project{In: pushdown(t.In, s), Attrs: t.Attrs}
	case *ra.Product:
		return &ra.Product{L: pushdown(t.L, s), R: pushdown(t.R, s)}
	case *ra.Union:
		return &ra.Union{L: pushdown(t.L, s), R: pushdown(t.R, s)}
	case *ra.Diff:
		return &ra.Diff{L: pushdown(t.L, s), R: pushdown(t.R, s)}
	default:
		return q
	}
}

// sink places one predicate as low as its attribute scope allows.
func sink(q ra.Query, p ra.Pred, s ra.Schema) ra.Query {
	switch t := q.(type) {
	case *ra.Select:
		in := sink(t.In, p, s)
		if w, ok := in.(*ra.Select); ok && w.In == t.In {
			// p sinks no lower than this selection: join it rather than
			// stacking a second one, so a leaf keeps the shape σ(R).
			return wrapSel(q, p)
		}
		return &ra.Select{In: in, Preds: t.Preds}
	case *ra.Project:
		// Projection attributes keep their names, so a predicate over the
		// output scope is over the input scope too.
		return &ra.Project{In: sink(t.In, p, s), Attrs: t.Attrs}
	case *ra.Product:
		if covers(t.L, p, s) {
			return &ra.Product{L: sink(t.L, p, s), R: t.R}
		}
		if covers(t.R, p, s) {
			return &ra.Product{L: t.L, R: sink(t.R, p, s)}
		}
		return wrapSel(q, p)
	default:
		return wrapSel(q, p)
	}
}

func covers(q ra.Query, p ra.Pred, s ra.Schema) bool {
	attrs, err := ra.OutAttrs(q, s)
	if err != nil {
		return false
	}
	var need []ra.Attr
	switch t := p.(type) {
	case ra.EqAttr:
		need = []ra.Attr{t.L, t.R}
	case ra.EqConst:
		need = []ra.Attr{t.A}
	default:
		return false
	}
	for _, a := range need {
		if exec.AttrIndex(attrs, a) < 0 {
			return false
		}
	}
	return true
}

// prune is projection pushdown: it rewrites q to carry only the attributes
// in need — those an ancestor's predicate, join key or output reads — so
// every relation occurrence ends as π_need(σ_consts(R)) and the tables kept
// for Product and Diff children hold narrow rows. need == nil asks for q's
// exact positional scope: at the root, and below Union and Diff, whose
// operands are matched by position. Otherwise the result's scope is some
// superset of need, which Select, Project and Product parents all tolerate.
// Counted (bag) semantics are preserved: π distributes over × and commutes
// with σ on the attributes it keeps.
func prune(q ra.Query, need map[ra.Attr]bool, s ra.Schema) ra.Query {
	switch t := q.(type) {
	case *ra.Relation:
		return narrow(q, need, s)
	case *ra.Select:
		if _, leaf := t.In.(*ra.Relation); leaf || need == nil {
			// Nothing to drop below. On a leaf that is by choice: the
			// selection stays on the bare relation, where seeding can bind
			// an index to its constants, and the columns only it reads are
			// dropped above it.
			return narrow(&ra.Select{In: prune(t.In, nil, s), Preds: t.Preds}, need, s)
		}
		below := make(map[ra.Attr]bool, len(need)+2*len(t.Preds))
		for a := range need {
			below[a] = true
		}
		for _, p := range t.Preds {
			switch e := p.(type) {
			case ra.EqAttr:
				below[e.L], below[e.R] = true, true
			case ra.EqConst:
				below[e.A] = true
			}
		}
		return narrow(&ra.Select{In: prune(t.In, below, s), Preds: t.Preds}, need, s)
	case *ra.Project:
		attrs := t.Attrs
		if need != nil {
			attrs = nil
			for _, a := range t.Attrs {
				if need[a] {
					attrs = append(attrs, a)
				}
			}
		}
		below := make(map[ra.Attr]bool, len(attrs))
		for _, a := range attrs {
			below[a] = true
		}
		in := prune(t.In, below, s)
		if p, ok := in.(*ra.Project); ok {
			in = p.In // π∘π is the outer π
		}
		return &ra.Project{In: in, Attrs: attrs}
	case *ra.Product:
		// The operands' scopes are disjoint, so handing both the whole set
		// hands each its own share.
		return &ra.Product{L: prune(t.L, need, s), R: prune(t.R, need, s)}
	case *ra.Union:
		return &ra.Union{L: prune(t.L, nil, s), R: prune(t.R, nil, s)}
	case *ra.Diff:
		return &ra.Diff{L: prune(t.L, nil, s), R: prune(t.R, nil, s)}
	default:
		return q
	}
}

// narrow projects q onto the attributes of its scope that are in need,
// keeping their order; q itself when nothing would be dropped.
func narrow(q ra.Query, need map[ra.Attr]bool, s ra.Schema) ra.Query {
	if need == nil {
		return q
	}
	attrs, err := ra.OutAttrs(q, s)
	if err != nil {
		return q // Validate reports it
	}
	keep := make([]ra.Attr, 0, len(attrs))
	for _, a := range attrs {
		if need[a] {
			keep = append(keep, a)
		}
	}
	if len(keep) == len(attrs) {
		return q
	}
	return &ra.Project{In: q, Attrs: keep}
}

func wrapSel(q ra.Query, p ra.Pred) ra.Query {
	if sel, ok := q.(*ra.Select); ok {
		return &ra.Select{In: sel.In, Preds: append(append([]ra.Pred{}, sel.Preds...), p)}
	}
	return &ra.Select{In: q, Preds: []ra.Pred{p}}
}
