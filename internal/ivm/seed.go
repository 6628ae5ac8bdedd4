package ivm

import (
	"fmt"
	"slices"

	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// leafScan is the leaf pattern π_out(σ_preds(R)) that pushdown leaves on
// every relation occurrence, held in attribute names so it can be laid
// over the base relation's columns or over an index's XY columns alike.
type leafScan struct {
	base string
	// cols are R's attribute names in schema order; out the projected ones
	// in output order (cols itself when the pattern has no projection).
	cols, out []string
	preds     []leafPred
	// bound lists the constant-bound attributes, need every attribute the
	// pattern reads (out plus the predicates'): an index serves the pattern
	// from one bucket iff X ⊆ bound and XY ⊇ need.
	bound, need []string
}

// leafPred is one selection atom over R's attribute names: l = r, or
// l = c when r is empty.
type leafPred struct {
	l, r string
	c    value.Value
}

// setScans marks the top node of every leaf pattern [π]([σ](R)) in the tree.
func setScans(n *node, s ra.Schema) error {
	cur := n
	proj, _ := cur.q.(*ra.Project)
	if proj != nil {
		cur = cur.children[0]
	}
	var preds []ra.Pred
	if _, ok := cur.q.(*ra.Select); ok {
		preds, cur = cur.preds, cur.children[0]
	}
	rel, ok := cur.q.(*ra.Relation)
	if !ok {
		for _, c := range n.children {
			if err := setScans(c, s); err != nil {
				return err
			}
		}
		return nil
	}
	ls := &leafScan{base: rel.Base, cols: s[rel.Base]}
	ls.out = ls.cols
	if proj != nil {
		ls.out = make([]string, len(proj.Attrs))
		for i, a := range proj.Attrs {
			ls.out[i] = a.Name
		}
	}
	ls.need = append(ls.need, ls.out...)
	for _, p := range preds {
		switch t := p.(type) {
		case ra.EqConst:
			ls.preds = append(ls.preds, leafPred{l: t.A.Name, c: t.C})
			ls.bound = append(ls.bound, t.A.Name)
			ls.need = append(ls.need, t.A.Name)
		case ra.EqAttr:
			ls.preds = append(ls.preds, leafPred{l: t.L.Name, r: t.R.Name})
			ls.need = append(ls.need, t.L.Name, t.R.Name)
		default:
			return fmt.Errorf("ivm: no seeding rule for predicate %s", p)
		}
	}
	n.scan = ls
	return nil
}

// rowTest is a leafScan compiled to the positions of one column layout.
type rowTest struct {
	preds []posPred
	// pos projects a row onto out; nil when that is the identity.
	pos []int
}

// posPred compares column l with column r, or with c when r < 0.
type posPred struct {
	l, r int
	c    value.Value
}

func (ls *leafScan) compile(layout []string) (*rowTest, error) {
	var err error
	at := func(name string) int {
		i := slices.Index(layout, name)
		if i < 0 {
			i, err = 0, fmt.Errorf("ivm: attribute %s.%s not among the seeded columns %v", ls.base, name, layout)
		}
		return i
	}
	rt := &rowTest{}
	for _, p := range ls.preds {
		r := -1
		if p.r != "" {
			r = at(p.r)
		}
		rt.preds = append(rt.preds, posPred{at(p.l), r, p.c})
	}
	identity := len(ls.out) == len(layout)
	pos := make([]int, len(ls.out))
	for i, name := range ls.out {
		pos[i] = at(name)
		identity = identity && pos[i] == i
	}
	if !identity {
		rt.pos = pos
	}
	return rt, err
}

func (rt *rowTest) holds(t value.Tuple) bool {
	for _, p := range rt.preds {
		if p.r < 0 {
			if t[p.l] != p.c {
				return false
			}
		} else if t[p.l] != t[p.r] {
			return false
		}
	}
	return true
}

// seedLeaf computes the counted table of a leaf pattern with one bounded
// read. When an index of the access schema has X among the constant-bound
// attributes and XY covering every attribute the pattern reads, its one
// bucket holds π_XY of exactly the candidate tuples and each entry's
// reference count is that row's derivation count; the predicates filter
// the bucket and the projection sums counts. Otherwise the relation is
// scanned in place: predicates first, an allocation only per survivor.
func (v *View) seedLeaf(ls *leafScan, db *store.DB) (map[string]*crow, error) {
	con, indexed := db.CoveringIndex(ls.base, ls.bound, ls.need)
	layout := ls.cols
	if indexed {
		layout = plan.IndexCols(con)
	}
	rt, err := ls.compile(layout)
	if err != nil {
		return nil, err
	}
	m := make(map[string]*crow)
	visit := func(t value.Tuple, n int) bool {
		if !rt.holds(t) {
			return true
		}
		if rt.pos != nil {
			t = t.Project(rt.pos)
		}
		k := t.Key()
		if c := m[k]; c != nil {
			c.n += int64(n)
		} else {
			m[k] = &crow{t: t, n: int64(n)}
		}
		// Stop reading once the cap is blown; eval reports it.
		return v.maxRows <= 0 || len(m) <= v.maxRows
	}
	if !indexed {
		n, err := db.ScanFunc(ls.base, func(t value.Tuple) bool { return visit(t, 1) })
		v.seedScanned += int64(n)
		return m, err
	}
	xvals := make(value.Tuple, len(con.X))
	for i, x := range con.X {
		for _, p := range ls.preds {
			if p.l == x && p.r == "" {
				xvals[i] = p.c
				break
			}
		}
	}
	n, err := db.FetchCounted(con, xvals, visit)
	v.seedFetched += int64(n)
	return m, err
}
