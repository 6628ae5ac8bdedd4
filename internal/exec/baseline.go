package exec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ra"
	"repro/internal/value"
)

// RunBaseline evaluates q the conventional way (evalDBMS): every relation
// occurrence is read by a full scan of whole tuples through src, constant
// selections are applied after the scan, and equi-joins use hash joins
// with a smallest-first order — a fair model of the MySQL/PostgreSQL
// behaviour the paper observed (entire tables are accessed whenever
// non-key attributes are involved). Its data access is Θ(|D|) by
// construction. Like Run, the evaluation itself is columnar over an arena,
// and Stats count the rows src hands back, so they are the same whichever
// source serves the scans.
func RunBaseline(q ra.Query, s ra.Schema, src Source) (*Table, Stats, error) {
	start := time.Now()
	var acc accCounter
	a := getArena()
	defer a.release()
	ctx := &evalCtx{a: a, in: a.in, acc: &acc}
	t, _, err := evalBaseline(ctx, q, s, src)
	if err != nil {
		return nil, Stats{}, err
	}
	return t.detach(), acc.stats(start, 0), nil
}

// PredsHold reports whether row, whose columns are positionally described
// by scope, satisfies every predicate. Exported for internal/ivm, which
// filters delta tuples through a view's selection nodes one row at a time.
func PredsHold(row value.Tuple, scope []ra.Attr, preds []ra.Pred) (bool, error) {
	for _, p := range preds {
		switch t := p.(type) {
		case ra.EqAttr:
			pa, pb := attrIndex(scope, t.L), attrIndex(scope, t.R)
			if pa < 0 || pb < 0 {
				return false, fmt.Errorf("exec: selection attribute out of scope in %s", p)
			}
			if row[pa] != row[pb] {
				return false, nil
			}
		case ra.EqConst:
			pa := attrIndex(scope, t.A)
			if pa < 0 {
				return false, fmt.Errorf("exec: selection attribute out of scope in %s", p)
			}
			if row[pa] != t.C {
				return false, nil
			}
		}
	}
	return true, nil
}

// AttrIndex returns the position of a in attrs, or -1. Exported for
// internal/ivm, which resolves view-node columns by attribute.
func AttrIndex(attrs []ra.Attr, a ra.Attr) int {
	return attrIndex(attrs, a)
}

func evalBaseline(ctx *evalCtx, q ra.Query, s ra.Schema, src Source) (*Table, []ra.Attr, error) {
	if ra.IsSPC(q) {
		spc, err := flattenOne(q, s)
		if err != nil {
			return nil, nil, err
		}
		t, err := evalSPCBaseline(ctx, spc, s, src)
		if err != nil {
			return nil, nil, err
		}
		return t, spc.Out, nil
	}
	switch t := q.(type) {
	case *ra.Union:
		l, la, err := evalBaseline(ctx, t.L, s, src)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := evalBaseline(ctx, t.R, s, src)
		if err != nil {
			return nil, nil, err
		}
		out := newCtxTable(ctx, l.Cols, l.n+r.n)
		for j := range out.cols {
			out.cols[j] = append(out.cols[j], l.cols[j][:l.n]...)
			out.cols[j] = append(out.cols[j], r.cols[j][:r.n]...)
		}
		out.setLen(l.n + r.n)
		out.dedupAll()
		noteBatch(out.n)
		return out, la, nil
	case *ra.Diff:
		l, la, err := evalBaseline(ctx, t.L, s, src)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := evalBaseline(ctx, t.R, s, src)
		if err != nil {
			return nil, nil, err
		}
		keep := diffRows(ctx, l, r)
		out := newCtxTable(ctx, l.Cols, len(keep))
		gatherInto(out, l.cols, keep)
		noteBatch(out.n)
		return out, la, nil
	case *ra.Select:
		in, ia, err := evalBaseline(ctx, t.In, s, src)
		if err != nil {
			return nil, nil, err
		}
		keep, err := filterPreds(ctx, in, ia, t.Preds)
		if err != nil {
			return nil, nil, err
		}
		out := newCtxTable(ctx, in.Cols, len(keep))
		gatherInto(out, in.cols, keep)
		noteBatch(out.n)
		return out, ia, nil
	case *ra.Project:
		in, ia, err := evalBaseline(ctx, t.In, s, src)
		if err != nil {
			return nil, nil, err
		}
		pos := make([]int, len(t.Attrs))
		cols := make([]string, len(t.Attrs))
		for i, a := range t.Attrs {
			p := attrIndex(ia, a)
			if p < 0 {
				return nil, nil, fmt.Errorf("exec: projection attribute %s out of scope", a)
			}
			pos[i] = p
			cols[i] = a.String()
		}
		out := newCtxTable(ctx, cols, in.n)
		for j, p := range pos {
			out.cols[j] = append(out.cols[j], in.cols[p][:in.n]...)
		}
		out.setLen(in.n)
		out.dedupAll()
		noteBatch(out.n)
		return out, t.Attrs, nil
	case *ra.Product:
		l, la, err := evalBaseline(ctx, t.L, s, src)
		if err != nil {
			return nil, nil, err
		}
		r, rAttrs, err := evalBaseline(ctx, t.R, s, src)
		if err != nil {
			return nil, nil, err
		}
		out := crossCtx(ctx, l, r, append(append([]string{}, l.Cols...), r.Cols...))
		noteBatch(out.n)
		return out, append(append([]ra.Attr{}, la...), rAttrs...), nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown node %T", q)
	}
}

// filterPreds compiles the selection's predicates against the scope and
// returns the surviving row ids, column-wise like filterRows. A constant
// the evaluation has never interned cannot match any row.
func filterPreds(ctx *evalCtx, in *Table, scope []ra.Attr, preds []ra.Pred) ([]int32, error) {
	keep := ctx.allocInts(in.n)
	for i := 0; i < in.n; i++ {
		keep = append(keep, int32(i))
	}
	for _, p := range preds {
		switch t := p.(type) {
		case ra.EqAttr:
			pa, pb := attrIndex(scope, t.L), attrIndex(scope, t.R)
			if pa < 0 || pb < 0 {
				return nil, fmt.Errorf("exec: selection attribute out of scope in %s", p)
			}
			ca, cb := in.cols[pa], in.cols[pb]
			w := 0
			for _, id := range keep {
				if ca[id] == cb[id] {
					keep[w] = id
					w++
				}
			}
			keep = keep[:w]
		case ra.EqConst:
			pa := attrIndex(scope, t.A)
			if pa < 0 {
				return nil, fmt.Errorf("exec: selection attribute out of scope in %s", p)
			}
			ch := ctx.in.Intern(t.C)
			ca := in.cols[pa]
			w := 0
			for _, id := range keep {
				if ca[id] == ch {
					keep[w] = id
					w++
				}
			}
			keep = keep[:w]
		}
	}
	return keep, nil
}

func flattenOne(q ra.Query, s ra.Schema) (*ra.SPC, error) {
	subs, err := ra.MaxSPC(q, s)
	if err != nil {
		return nil, err
	}
	if len(subs) != 1 {
		return nil, fmt.Errorf("exec: expected one SPC sub-query, got %d", len(subs))
	}
	return subs[0], nil
}

// evalSPCBaseline evaluates a flattened SPC query with full scans and hash
// joins. Tables are keyed by equality-class labels so equi-join conditions
// become natural joins; residual conditions are checked implicitly by class
// construction.
func evalSPCBaseline(ctx *evalCtx, spc *ra.SPC, s ra.Schema, src Source) (*Table, error) {
	var all []ra.Attr
	for _, rel := range spc.Rels {
		names, err := s.Attrs(rel.Base)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			all = append(all, ra.Attr{Rel: rel.Name, Name: n})
		}
	}
	classes := ra.NewClasses(all, spc.Preds)
	if classes.Conflict {
		return newCtxTable(ctx, make([]string, len(spc.Out)), 0), nil
	}

	// Which classes each relation must expose: classes of its attributes in
	// XQs plus classes shared with other relations (join columns).
	classRels := map[ra.Attr]map[string]bool{}
	for _, rel := range spc.Rels {
		names, _ := s.Attrs(rel.Base)
		for _, n := range names {
			rep := classes.Rep(ra.Attr{Rel: rel.Name, Name: n})
			if classRels[rep] == nil {
				classRels[rep] = map[string]bool{}
			}
			classRels[rep][rel.Name] = true
		}
	}
	needed := map[ra.Attr]bool{}
	for _, a := range spc.X {
		needed[classes.Rep(a)] = true
	}
	for rep, rels := range classRels {
		if len(rels) > 1 {
			needed[rep] = true
		}
	}

	// Scan, filter and label each relation.
	tabs := make([]*Table, 0, len(spc.Rels))
	for _, rel := range spc.Rels {
		t, err := scanRelation(ctx, rel, classes, needed, s, src)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, t)
	}
	// Smallest-first hash-join order, joining connected tables before
	// resorting to cross products.
	sort.Slice(tabs, func(i, j int) bool { return tabs[i].Len() < tabs[j].Len() })
	cur := tabs[0]
	rest := tabs[1:]
	for len(rest) > 0 {
		pick := -1
		for i, t := range rest {
			if sharesColumn(cur, t) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0
		}
		cur = natJoinCtx(ctx, cur, rest[pick])
		noteBatch(cur.n)
		rest = append(rest[:pick], rest[pick+1:]...)
	}

	// Project to output attributes.
	pos := make([]int, len(spc.Out))
	cols := make([]string, len(spc.Out))
	for i, a := range spc.Out {
		lbl := classes.Rep(a).String()
		p := cur.ColPos(lbl)
		if p < 0 {
			return nil, fmt.Errorf("exec: output class %s missing", lbl)
		}
		pos[i] = p
		cols[i] = lbl
	}
	out := newCtxTable(ctx, cols, cur.n)
	for j, p := range pos {
		out.cols[j] = append(out.cols[j], cur.cols[p][:cur.n]...)
	}
	out.setLen(cur.n)
	out.dedupAll()
	noteBatch(out.n)
	return out, nil
}

// scanRelation reads one relation occurrence whole (counted as a scan),
// applies intra-class equality and constant pushdown per tuple in value
// space, and interns only the surviving tuples' needed columns into the
// evaluation's batch — the single point where baseline data enters the
// handle space.
func scanRelation(ctx *evalCtx, rel *ra.Relation, classes *ra.Classes,
	needed map[ra.Attr]bool, s ra.Schema, src Source) (*Table, error) {
	names, err := s.Attrs(rel.Base)
	if err != nil {
		return nil, err
	}
	// Column plan: positions of attributes whose class is needed, in class
	// label order; attributes of the same class must agree, and classes
	// with constants are filtered here (selection pushdown onto the scan).
	type colSpec struct {
		label string
		poss  []int
		cval  value.Value
		has   bool
	}
	byLabel := map[string]*colSpec{}
	var order []*colSpec
	for i, n := range names {
		rep := classes.Rep(ra.Attr{Rel: rel.Name, Name: n})
		if !needed[rep] {
			continue
		}
		lbl := rep.String()
		cs := byLabel[lbl]
		if cs == nil {
			cs = &colSpec{label: lbl}
			if v, ok := classes.Const(rep); ok {
				cs.cval, cs.has = v, true
			}
			byLabel[lbl] = cs
			order = append(order, cs)
		}
		cs.poss = append(cs.poss, i)
	}
	cols := make([]string, len(order))
	for i, cs := range order {
		cols[i] = cs.label
	}
	rows, err := src.Scan(rel.Base) // full-tuple scan, counted
	if err != nil {
		return nil, err
	}
	ctx.acc.scanned += int64(len(rows))
	out := newCtxTable(ctx, cols, len(rows))
	out.initSet(len(rows))
rowLoop:
	for _, t := range rows {
		// Validate in value space first: the candidate row is only pushed
		// once it is known to survive, keeping the columns balanced.
		for _, cs := range order {
			v := t[cs.poss[0]]
			for _, p := range cs.poss[1:] {
				if t[p] != v {
					continue rowLoop
				}
			}
			if cs.has && v != cs.cval {
				continue rowLoop
			}
		}
		for ci, cs := range order {
			out.pushCand(ci, ctx.in.Intern(t[cs.poss[0]]))
		}
		out.commitCand()
	}
	noteBatch(out.n)
	return out, nil
}

func sharesColumn(a, b *Table) bool {
	for _, c := range b.Cols {
		if colIndex(a.Cols, c) >= 0 {
			return true
		}
	}
	return false
}

func attrIndex(attrs []ra.Attr, a ra.Attr) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}
