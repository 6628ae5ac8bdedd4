// The tuple-at-a-time reference evaluator: the executor as it was before
// the columnar refactor, kept in test code as the differential oracle that
// FuzzBatchExec and the batched-vs-reference walls compare answers and
// access counts against (export_test.go exposes it to exec_test). It
// allocates a map and a key string per tuple per operator by design; the
// operator benchmarks use it as the "before" measurement.
package exec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// legacyTable is the pre-refactor row-map table: tuples keyed by their
// encoded strings.
type legacyTable struct {
	cols []string
	rows map[string]value.Tuple
}

func newLegacyTable(cols []string) *legacyTable {
	return &legacyTable{cols: cols, rows: map[string]value.Tuple{}}
}

func (t *legacyTable) add(row value.Tuple) { t.rows[row.Key()] = row }

func (t *legacyTable) colPos(label string) int {
	for i, c := range t.cols {
		if c == label {
			return i
		}
	}
	return -1
}

// toTable converts the map representation into the columnar Table the
// public API returns.
func (t *legacyTable) toTable() *Table {
	out := NewTableSized(t.cols, len(t.rows))
	for _, r := range t.rows {
		out.Add(r)
	}
	return out
}

// runLegacy executes a bounded plan with the tuple-at-a-time evaluator.
// Answers and Stats match Run exactly; only the execution strategy (and
// its allocation profile) differs.
func runLegacy(p *plan.Plan, db *store.DB) (*Table, Stats, error) {
	start := time.Now()
	var acc accCounter
	tables := make([]*legacyTable, len(p.Steps))
	for i := range p.Steps {
		t, err := runStepLegacy(&p.Steps[i], tables, db, &acc)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("exec: step T%d (%s): %w", i, p.Steps[i].Op, err)
		}
		tables[i] = t
	}
	return tables[p.Result].toTable(), acc.stats(start, len(p.Steps)), nil
}

func runStepLegacy(s *plan.Step, tables []*legacyTable, db *store.DB, acc *accCounter) (*legacyTable, error) {
	switch s.Op {
	case plan.OpConst:
		t := newLegacyTable(s.Cols)
		for _, r := range s.Rows {
			t.add(r)
		}
		return t, nil
	case plan.OpFetch:
		return runFetchLegacy(s, tables, db, acc)
	case plan.OpProject:
		in := tables[s.L]
		t := newLegacyTable(s.Cols)
		for _, r := range in.rows {
			t.add(r.Project(s.Pos))
		}
		return t, nil
	case plan.OpFilter:
		in := tables[s.L]
		t := newLegacyTable(s.Cols)
		for _, r := range in.rows {
			if matchesLegacy(r, s.Conds) {
				t.add(r)
			}
		}
		return t, nil
	case plan.OpProduct:
		l, r := tables[s.L], tables[s.R]
		t := newLegacyTable(s.Cols)
		for _, a := range l.rows {
			for _, b := range r.rows {
				row := make(value.Tuple, 0, len(a)+len(b))
				row = append(row, a...)
				row = append(row, b...)
				t.add(row)
			}
		}
		return t, nil
	case plan.OpJoin:
		return natJoinLegacy(tables[s.L], tables[s.R]), nil
	case plan.OpUnion:
		l, r := tables[s.L], tables[s.R]
		t := newLegacyTable(s.Cols)
		for _, a := range l.rows {
			t.add(a)
		}
		for _, b := range r.rows {
			t.add(b)
		}
		return t, nil
	case plan.OpDiff:
		l, r := tables[s.L], tables[s.R]
		t := newLegacyTable(s.Cols)
		for k, a := range l.rows {
			if _, ok := r.rows[k]; !ok {
				t.add(a)
			}
		}
		return t, nil
	default:
		return nil, fmt.Errorf("unknown operator %v", s.Op)
	}
}

func matchesLegacy(r value.Tuple, conds []plan.Cond) bool {
	for _, c := range conds {
		if c.IsConst {
			if r[c.PosA] != c.C {
				return false
			}
		} else if r[c.PosA] != r[c.PosB] {
			return false
		}
	}
	return true
}

// runFetchLegacy is the tuple-at-a-time fetch operator: one store probe
// per distinct X value, per-row output assembly with intra-class equality
// and constant checks.
func runFetchLegacy(s *plan.Step, tables []*legacyTable, db *store.DB, acc *accCounter) (*legacyTable, error) {
	out := newLegacyTable(s.Cols)

	colPos := make(map[string]int, len(s.Cols))
	for i, c := range s.Cols {
		colPos[c] = i
	}
	constAt := make([]value.Value, len(s.Cols))
	constSet := make([]bool, len(s.Cols))
	for _, ce := range s.ConstEqs {
		p, ok := colPos[ce.Label]
		if !ok {
			return nil, fmt.Errorf("const requirement on unknown column %s", ce.Label)
		}
		constAt[p] = ce.C
		constSet[p] = true
	}
	outPos := make([]int, len(s.FetchAttrs))
	for i, lbl := range s.FetchLabels {
		p, ok := colPos[lbl]
		if !ok {
			return nil, fmt.Errorf("fetch label %s not among output columns", lbl)
		}
		outPos[i] = p
	}

	emit := func(fetched []value.Tuple) {
	rowLoop:
		for _, ft := range fetched {
			row := make(value.Tuple, len(s.Cols))
			seen := make([]bool, len(s.Cols))
			for i, p := range outPos {
				v := ft[i]
				if seen[p] {
					// Two index attributes share a class: values must agree.
					if row[p] != v {
						continue rowLoop
					}
					continue
				}
				if constSet[p] && v != constAt[p] {
					continue rowLoop
				}
				row[p] = v
				seen[p] = true
			}
			out.add(row)
		}
	}

	countFetch := func(fetched []value.Tuple) {
		if len(fetched) == 0 {
			acc.fetched++ // empty probe still touches the index once
		} else {
			acc.fetched += int64(len(fetched))
		}
	}

	if len(s.XCols) == 0 {
		fetched, err := db.Fetch(s.Con, nil)
		if err != nil {
			return nil, err
		}
		countFetch(fetched)
		emit(fetched)
		return out, nil
	}

	in := tables[s.L]
	xpos := make([]int, len(s.XCols))
	for i, lbl := range s.XCols {
		p := in.colPos(lbl)
		if p < 0 {
			return nil, fmt.Errorf("fetch X column %s missing from input", lbl)
		}
		xpos[i] = p
	}
	seenX := map[string]bool{}
	for _, r := range in.rows {
		xv := r.Project(xpos)
		k := xv.Key()
		if seenX[k] {
			continue
		}
		seenX[k] = true
		fetched, err := db.Fetch(s.Con, xv)
		if err != nil {
			return nil, err
		}
		countFetch(fetched)
		emit(fetched)
	}
	return out, nil
}

// natJoinLegacy is the tuple-at-a-time natural join (right side hashed by
// encoded key strings).
func natJoinLegacy(l, r *legacyTable) *legacyTable {
	lset := map[string]int{}
	for i, c := range l.cols {
		lset[c] = i
	}
	var lShared, rShared, rRest []int
	for i, c := range r.cols {
		if p, ok := lset[c]; ok {
			lShared = append(lShared, p)
			rShared = append(rShared, i)
		} else {
			rRest = append(rRest, i)
		}
	}
	outCols := append([]string{}, l.cols...)
	for _, i := range rRest {
		outCols = append(outCols, r.cols[i])
	}
	out := newLegacyTable(outCols)

	hash := map[string][]value.Tuple{}
	for _, rr := range r.rows {
		k := value.KeyOf(rr, rShared)
		hash[k] = append(hash[k], rr)
	}
	for _, lr := range l.rows {
		k := value.KeyOf(lr, lShared)
		for _, rr := range hash[k] {
			row := make(value.Tuple, 0, len(outCols))
			row = append(row, lr...)
			for _, i := range rRest {
				row = append(row, rr[i])
			}
			out.add(row)
		}
	}
	return out
}

// runBaselineLegacy evaluates q the conventional way with the
// tuple-at-a-time evaluator. Answers and Stats match RunBaseline exactly.
func runBaselineLegacy(q ra.Query, s ra.Schema, db *store.DB) (*Table, Stats, error) {
	start := time.Now()
	var acc accCounter
	t, _, err := evalBaselineLegacy(q, s, db, &acc)
	if err != nil {
		return nil, Stats{}, err
	}
	return t.toTable(), acc.stats(start, 0), nil
}

func evalBaselineLegacy(q ra.Query, s ra.Schema, db *store.DB, acc *accCounter) (*legacyTable, []ra.Attr, error) {
	if ra.IsSPC(q) {
		spc, err := flattenOne(q, s)
		if err != nil {
			return nil, nil, err
		}
		t, err := evalSPCLegacy(spc, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		return t, spc.Out, nil
	}
	switch t := q.(type) {
	case *ra.Union:
		l, la, err := evalBaselineLegacy(t.L, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := evalBaselineLegacy(t.R, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		out := newLegacyTable(l.cols)
		for _, a := range l.rows {
			out.add(a)
		}
		for _, b := range r.rows {
			out.add(b)
		}
		return out, la, nil
	case *ra.Diff:
		l, la, err := evalBaselineLegacy(t.L, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := evalBaselineLegacy(t.R, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		out := newLegacyTable(l.cols)
		for k, a := range l.rows {
			if _, ok := r.rows[k]; !ok {
				out.add(a)
			}
		}
		return out, la, nil
	case *ra.Select:
		in, ia, err := evalBaselineLegacy(t.In, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		out := newLegacyTable(in.cols)
		for _, row := range in.rows {
			ok, err := PredsHold(row, ia, t.Preds)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				out.add(row)
			}
		}
		return out, ia, nil
	case *ra.Project:
		in, ia, err := evalBaselineLegacy(t.In, s, db, acc)
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
		out := newLegacyTable(cols)
		for _, row := range in.rows {
			out.add(row.Project(pos))
		}
		return out, t.Attrs, nil
	case *ra.Product:
		l, la, err := evalBaselineLegacy(t.L, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		r, rAttrs, err := evalBaselineLegacy(t.R, s, db, acc)
		if err != nil {
			return nil, nil, err
		}
		out := newLegacyTable(append(append([]string{}, l.cols...), r.cols...))
		for _, a := range l.rows {
			for _, b := range r.rows {
				row := make(value.Tuple, 0, len(a)+len(b))
				row = append(row, a...)
				row = append(row, b...)
				out.add(row)
			}
		}
		return out, append(append([]ra.Attr{}, la...), rAttrs...), nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown node %T", q)
	}
}

func evalSPCLegacy(spc *ra.SPC, s ra.Schema, db *store.DB, acc *accCounter) (*legacyTable, error) {
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
		return newLegacyTable(make([]string, len(spc.Out))), nil
	}

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

	tabs := make([]*legacyTable, 0, len(spc.Rels))
	for _, rel := range spc.Rels {
		t, err := scanRelationLegacy(rel, classes, needed, s, db, acc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, t)
	}
	sort.Slice(tabs, func(i, j int) bool { return len(tabs[i].rows) < len(tabs[j].rows) })
	cur := tabs[0]
	rest := tabs[1:]
	for len(rest) > 0 {
		pick := -1
		for i, t := range rest {
			if sharesColumnLegacy(cur, t) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0
		}
		cur = natJoinLegacy(cur, rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
	}

	pos := make([]int, len(spc.Out))
	cols := make([]string, len(spc.Out))
	for i, a := range spc.Out {
		lbl := classes.Rep(a).String()
		p := cur.colPos(lbl)
		if p < 0 {
			return nil, fmt.Errorf("exec: output class %s missing", lbl)
		}
		pos[i] = p
		cols[i] = lbl
	}
	out := newLegacyTable(cols)
	for _, row := range cur.rows {
		out.add(row.Project(pos))
	}
	return out, nil
}

func scanRelationLegacy(rel *ra.Relation, classes *ra.Classes,
	needed map[ra.Attr]bool, s ra.Schema, db *store.DB, acc *accCounter) (*legacyTable, error) {
	names, err := s.Attrs(rel.Base)
	if err != nil {
		return nil, err
	}
	type colSpec struct {
		label string
		poss  []int
		cval  value.Value
		has   bool
	}
	byLabel := map[string]*colSpec{}
	var order []string
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
			order = append(order, lbl)
		}
		cs.poss = append(cs.poss, i)
	}
	cols := append([]string{}, order...)
	out := newLegacyTable(cols)
	rows, err := db.Scan(rel.Base) // full-tuple scan, counted
	if err != nil {
		return nil, err
	}
	acc.scanned += int64(len(rows))
rowLoop:
	for _, t := range rows {
		row := make(value.Tuple, len(cols))
		for ci, lbl := range order {
			cs := byLabel[lbl]
			v := t[cs.poss[0]]
			for _, p := range cs.poss[1:] {
				if t[p] != v {
					continue rowLoop
				}
			}
			if cs.has && v != cs.cval {
				continue rowLoop
			}
			row[ci] = v
		}
		out.add(row)
	}
	return out, nil
}

func sharesColumnLegacy(a, b *legacyTable) bool {
	for _, c := range b.cols {
		if a.colPos(c) >= 0 {
			return true
		}
	}
	return false
}
