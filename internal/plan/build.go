package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/hypergraph"
	"repro/internal/ra"
	"repro/internal/value"
)

// edge payloads of the ⟨Q,A⟩-hypergraph (Appendix A).
type ConstEdge struct {
	Sub   int
	Class ra.Attr
	Val   value.Value
}

type FDEdge struct {
	Sub int
	Occ string
	AC  access.ActualConstraint
}

type SplitEdge struct {
	Sub   int
	Class ra.Attr
}

// Builder carries the state of one QPlan invocation.
type builder struct {
	res   *cover.Result
	plan  *Plan
	graph *hypergraph.Graph
	deriv *hypergraph.Derivation
	root  hypergraph.NodeID
	// unit[node] memoizes the step computing the unit fetching plan ξcF for
	// a class node (single column) or the fetch table for a Y~ node.
	unit map[hypergraph.NodeID]int
	// fetchMemo / prodMemo share identical fetch and product steps, keeping
	// the plan length within the O(|Q||A|) bound of Lemma 8.
	fetchMemo map[string]int
	prodMemo  map[string]int
	// subByRoot locates the coverage analysis of each max SPC sub-query.
	subByRoot map[ra.Query]*subCtx
}

type subCtx struct {
	idx int
	sub *cover.Sub
}

// Build runs algorithm QPlan: given a coverage analysis whose query is
// covered, it returns a canonical bounded query plan (Theorem 5).
func Build(res *cover.Result) (*Plan, error) {
	if !res.Covered {
		return nil, fmt.Errorf("plan: query is not covered by the access schema")
	}
	b := &builder{
		res:       res,
		plan:      &Plan{Result: -1},
		unit:      map[hypergraph.NodeID]int{},
		fetchMemo: map[string]int{},
		prodMemo:  map[string]int{},
		subByRoot: map[ra.Query]*subCtx{},
	}
	for i, sub := range res.Subs {
		b.subByRoot[sub.SPC.Root] = &subCtx{idx: i, sub: sub}
	}
	b.buildHypergraph()
	b.deriv = b.graph.Derive(b.root)

	resultStep, _, err := b.evalNode(res.Query)
	if err != nil {
		return nil, err
	}
	b.plan.Result = resultStep
	return b.plan, nil
}

// Hypergraph builds the ⟨Q,A⟩-hypergraph G_{Q,A} for a covered query,
// exposed for the minimizers (minADAG, minAE) which search it for weighted
// shortest hyperpaths. The returned root is the dummy node r.
func Hypergraph(res *cover.Result) (*hypergraph.Graph, hypergraph.NodeID) {
	b := &builder{res: res}
	b.buildHypergraph()
	return b.graph, b.root
}

// ClassLabel names the hypergraph node / plan column of a class
// representative within sub-query si.
func ClassLabel(si int, rep ra.Attr) string {
	return "s" + strconv.Itoa(si) + "." + rep.Rel + "." + rep.Name
}

// yLabel names the Y~ node of actualized constraint ac within sub-query si.
func yLabel(si int, ac access.ActualConstraint) string {
	return "s" + strconv.Itoa(si) + "~" + ac.Key()
}

func (b *builder) buildHypergraph() {
	g := hypergraph.New()
	b.graph = g
	b.root = g.Node("r")
	for si, sub := range b.res.Subs {
		// Constant classes: hyperedges from r (case (3) of Appendix A).
		for _, rep := range sub.ConstClasses {
			v, _ := sub.Classes.Const(rep)
			n := g.Node(ClassLabel(si, rep))
			g.AddEdge([]hypergraph.NodeID{b.root}, n, 0, ConstEdge{Sub: si, Class: rep, Val: v})
		}
		// Induced FDs: X → Y~ weighted N, then Y~ → Yi weighted 0
		// (cases (1)-(2); the weights realise §6.2's weighted hypergraph).
		for _, rel := range sub.SPC.Rels {
			for _, ac := range b.res.Act.ByRel[rel.Name] {
				lReps := sub.Classes.Reps(ac.XAttrs(rel.Name))
				rReps := sub.Classes.Reps(ac.YAttrs(rel.Name))
				yNode := g.Node(yLabel(si, ac))
				head := make([]hypergraph.NodeID, 0, len(lReps))
				if len(lReps) == 0 {
					head = append(head, b.root)
				}
				for _, l := range lReps {
					head = append(head, g.Node(ClassLabel(si, l)))
				}
				g.AddEdge(head, yNode, int64(ac.N), FDEdge{Sub: si, Occ: rel.Name, AC: ac})
				for _, r := range rReps {
					g.AddEdge([]hypergraph.NodeID{yNode}, g.Node(ClassLabel(si, r)),
						0, SplitEdge{Sub: si, Class: r})
				}
			}
		}
	}
}

// unitPlan returns the memoized step computing the unit fetching plan for
// the given hypergraph node (procedure transQP / Γr of Lemma 7).
func (b *builder) unitPlan(node hypergraph.NodeID) (int, error) {
	if id, ok := b.unit[node]; ok {
		return id, nil
	}
	ei := b.deriv.Via[node]
	if ei < 0 {
		return -1, fmt.Errorf("plan: node %s has no derivation (query not fetchable?)", b.graph.Label(node))
	}
	e := b.graph.Edges[ei]
	var id int
	switch payload := e.Payload.(type) {
	case ConstEdge:
		id = b.plan.add(Step{
			Op:   OpConst,
			Cols: []string{ClassLabel(payload.Sub, payload.Class)},
			Rows: []value.Tuple{{payload.Val}},
			L:    -1, R: -1,
		})
	case FDEdge:
		fid, err := b.fetchStep(payload)
		if err != nil {
			return -1, err
		}
		id = fid
	case SplitEdge:
		// head is the Y~ node; project its fetch table to this class.
		srcID, err := b.unitPlan(e.Head[0])
		if err != nil {
			return -1, err
		}
		label := ClassLabel(payload.Sub, payload.Class)
		pos := colPos(b.plan.Steps[srcID].Cols, label)
		if pos < 0 {
			return -1, fmt.Errorf("plan: column %s missing from fetch output", label)
		}
		id = b.plan.add(Step{
			Op:   OpProject,
			Cols: []string{label},
			Pos:  []int{pos},
			L:    srcID, R: -1,
		})
	default:
		return -1, fmt.Errorf("plan: unknown edge payload %T", e.Payload)
	}
	b.unit[node] = id
	return id, nil
}

// fetchStep emits the product-of-heads + fetch for an induced FD edge,
// producing a table over the classes of X ∪ Y of the constraint.
func (b *builder) fetchStep(p FDEdge) (int, error) {
	memoKey := "f|" + strconv.Itoa(p.Sub) + "|" + p.Occ + "|" + p.AC.Key()
	if id, ok := b.fetchMemo[memoKey]; ok {
		return id, nil
	}
	sub := b.res.Subs[p.Sub].Classes
	xReps := sub.Reps(p.AC.XAttrs(p.Occ))

	src := -1
	xCols := make([]string, len(p.AC.X))
	if len(xReps) > 0 {
		var err error
		src, err = b.productOfClasses(p.Sub, xReps)
		if err != nil {
			return -1, err
		}
		srcCols := b.plan.Steps[src].Cols
		for i, xa := range p.AC.XAttrs(p.Occ) {
			label := ClassLabel(p.Sub, sub.Rep(xa))
			if colPos(srcCols, label) < 0 {
				return -1, fmt.Errorf("plan: X column %s missing", label)
			}
			xCols[i] = label
		}
	}

	attrs := IndexCols(p.AC.Constraint)
	labels := make([]string, len(attrs))
	cols := make([]string, 0, len(attrs))
	seen := map[string]bool{}
	var constEqs []ConstCond
	for i, a := range attrs {
		rep := sub.Rep(ra.Attr{Rel: p.Occ, Name: a})
		labels[i] = ClassLabel(p.Sub, rep)
		if !seen[labels[i]] {
			seen[labels[i]] = true
			cols = append(cols, labels[i])
			if v, ok := sub.Const(rep); ok {
				constEqs = append(constEqs, ConstCond{Label: labels[i], C: v})
			}
		}
	}
	id := b.plan.add(Step{
		Op:          OpFetch,
		Cols:        cols,
		L:           src,
		R:           -1,
		Occ:         p.Occ,
		Con:         p.AC.Base,
		XCols:       xCols,
		FetchAttrs:  attrs,
		FetchLabels: labels,
		ConstEqs:    constEqs,
	})
	b.fetchMemo[memoKey] = id
	return id, nil
}

// productOfClasses produces a step whose columns are the unit plans of the
// given class representatives (one column per class).
func (b *builder) productOfClasses(si int, reps []ra.Attr) (int, error) {
	var sb strings.Builder
	sb.WriteString("p|")
	sb.WriteString(strconv.Itoa(si))
	for _, r := range reps {
		sb.WriteByte('|')
		sb.WriteString(r.Rel)
		sb.WriteByte('.')
		sb.WriteString(r.Name)
	}
	memoKey := sb.String()
	if id, ok := b.prodMemo[memoKey]; ok {
		return id, nil
	}
	ids := make([]int, len(reps))
	for i, rep := range reps {
		node, ok := b.graph.Lookup(ClassLabel(si, rep))
		if !ok {
			return -1, fmt.Errorf("plan: no hypergraph node for class %s", rep)
		}
		id, err := b.unitPlan(node)
		if err != nil {
			return -1, err
		}
		ids[i] = id
	}
	cur := ids[0]
	for _, id := range ids[1:] {
		cur = b.plan.add(Step{
			Op:   OpProduct,
			Cols: append(append([]string{}, b.plan.Steps[cur].Cols...), b.plan.Steps[id].Cols...),
			L:    cur, R: id,
		})
	}
	b.prodMemo[memoKey] = cur
	return cur, nil
}

// indexingPlan emits the unit indexing plan ξcI(S) for occurrence rel of
// sub-query si: candidates (product of unit fetching plans) are validated
// against tuples fetched via the chosen indexing constraint, ensuring all
// attribute combinations come from the same stored tuple (Section 5.1).
// It returns the step and the class labels of X^S_Qs, sorted.
func (b *builder) indexingPlan(si int, sub *cover.Sub, rel string) (int, []string, error) {
	classes := sub.Classes
	idxCon, ok := sub.IndexBy[rel]
	if !ok {
		return -1, nil, fmt.Errorf("plan: occurrence %s has no indexing constraint", rel)
	}
	needReps := classes.Reps(sub.SPC.RelAttrs(rel))
	xReps := classes.Reps(idxCon.XAttrs(rel))

	// allReps = needReps ∪ xReps, deterministic order.
	allReps := append([]ra.Attr{}, needReps...)
	inNeed := map[ra.Attr]bool{}
	for _, r := range needReps {
		inNeed[r] = true
	}
	for _, r := range xReps {
		if !inNeed[r] {
			allReps = append(allReps, r)
		}
	}

	needLabels := make([]string, len(needReps))
	for i, r := range needReps {
		needLabels[i] = ClassLabel(si, r)
	}
	sort.Strings(needLabels)

	// Fetched tuples via the indexing constraint.
	fetchID, err := b.fetchStep(FDEdge{Sub: si, Occ: rel, AC: idxCon})
	if err != nil {
		return -1, nil, err
	}

	var validated int
	if len(allReps) == 0 {
		// The occurrence contributes only (non)emptiness: a zero-column
		// existence table.
		validated = b.plan.add(Step{
			Op: OpProject, Cols: nil, Pos: nil, L: fetchID, R: -1,
		})
		return validated, nil, nil
	}

	cand, err := b.productOfClasses(si, allReps)
	if err != nil {
		return -1, nil, err
	}
	// Natural join validates: shared labels cover allReps because
	// X^S_Qs ⊆ XY (indexed condition) and X ⊆ shared by construction.
	validated = b.plan.add(Step{
		Op:   OpJoin,
		Cols: joinCols(b.plan.Steps[cand].Cols, b.plan.Steps[fetchID].Cols),
		L:    cand, R: fetchID,
	})
	// Project to the needed classes.
	pos := make([]int, len(needLabels))
	vcols := b.plan.Steps[validated].Cols
	for i, lbl := range needLabels {
		pos[i] = colPos(vcols, lbl)
		if pos[i] < 0 {
			return -1, nil, fmt.Errorf("plan: needed column %s missing after indexing join", lbl)
		}
	}
	out := b.plan.add(Step{
		Op:   OpProject,
		Cols: needLabels,
		Pos:  pos,
		L:    validated, R: -1,
	})
	return out, needLabels, nil
}

// spcEval builds the evaluation of one max SPC sub-query: the natural join
// of the indexing plans of its occurrences (join conditions are implicit in
// the shared class labels), projected to the sub-query's output attributes.
func (b *builder) spcEval(ctx *subCtx) (int, []ra.Attr, error) {
	sub := ctx.sub
	spc := sub.SPC
	if sub.Classes.Conflict {
		// ΣQ derives c = c' for distinct constants: the answer is empty.
		empty := b.plan.add(Step{
			Op:   OpConst,
			Cols: make([]string, len(spc.Out)),
			L:    -1, R: -1,
		})
		return empty, spc.Out, nil
	}
	cur := -1
	for _, rel := range spc.Rels {
		id, _, err := b.indexingPlan(ctx.idx, sub, rel.Name)
		if err != nil {
			return -1, nil, err
		}
		if cur < 0 {
			cur = id
			continue
		}
		cur = b.plan.add(Step{
			Op:   OpJoin,
			Cols: joinCols(b.plan.Steps[cur].Cols, b.plan.Steps[id].Cols),
			L:    cur, R: id,
		})
	}
	// Project to output attributes (by class label; duplicates allowed).
	cols := b.plan.Steps[cur].Cols
	pos := make([]int, len(spc.Out))
	outCols := make([]string, len(spc.Out))
	for i, a := range spc.Out {
		lbl := ClassLabel(ctx.idx, sub.Classes.Rep(a))
		p := colPos(cols, lbl)
		if p < 0 {
			return -1, nil, fmt.Errorf("plan: output attribute %s (class %s) not available", a, lbl)
		}
		pos[i] = p
		outCols[i] = lbl
	}
	out := b.plan.add(Step{
		Op:   OpProject,
		Cols: outCols,
		Pos:  pos,
		L:    cur, R: -1,
	})
	return out, spc.Out, nil
}

// evalNode recursively builds the evaluation plan ξcE: max SPC sub-queries
// become their canonical sub-plans; set operators, and any selections or
// projections sitting above them, are applied positionally.
func (b *builder) evalNode(q ra.Query) (int, []ra.Attr, error) {
	if ctx, ok := b.subByRoot[q]; ok {
		return b.spcEval(ctx)
	}
	switch t := q.(type) {
	case *ra.Union, *ra.Diff:
		var l, r ra.Query
		var op Op
		if u, ok := q.(*ra.Union); ok {
			l, r, op = u.L, u.R, OpUnion
		} else {
			d := q.(*ra.Diff)
			l, r, op = d.L, d.R, OpDiff
		}
		li, la, err := b.evalNode(l)
		if err != nil {
			return -1, nil, err
		}
		ri, _, err := b.evalNode(r)
		if err != nil {
			return -1, nil, err
		}
		if len(b.plan.Steps[li].Cols) != len(b.plan.Steps[ri].Cols) {
			return -1, nil, fmt.Errorf("plan: set operands have different arities")
		}
		id := b.plan.add(Step{
			Op:   op,
			Cols: append([]string{}, b.plan.Steps[li].Cols...),
			L:    li, R: ri,
		})
		return id, la, nil
	case *ra.Select:
		ci, ca, err := b.evalNode(t.In)
		if err != nil {
			return -1, nil, err
		}
		conds, err := condsFor(t.Preds, ca)
		if err != nil {
			return -1, nil, err
		}
		id := b.plan.add(Step{
			Op:    OpFilter,
			Cols:  append([]string{}, b.plan.Steps[ci].Cols...),
			Conds: conds,
			L:     ci, R: -1,
		})
		return id, ca, nil
	case *ra.Project:
		ci, ca, err := b.evalNode(t.In)
		if err != nil {
			return -1, nil, err
		}
		pos := make([]int, len(t.Attrs))
		cols := make([]string, len(t.Attrs))
		ccols := b.plan.Steps[ci].Cols
		for i, a := range t.Attrs {
			p := attrPos(ca, a)
			if p < 0 {
				return -1, nil, fmt.Errorf("plan: projection attribute %s not in scope", a)
			}
			pos[i] = p
			cols[i] = ccols[p]
		}
		id := b.plan.add(Step{Op: OpProject, Cols: cols, Pos: pos, L: ci, R: -1})
		return id, t.Attrs, nil
	case *ra.Product:
		li, la, err := b.evalNode(t.L)
		if err != nil {
			return -1, nil, err
		}
		ri, raAttrs, err := b.evalNode(t.R)
		if err != nil {
			return -1, nil, err
		}
		id := b.plan.add(Step{
			Op:   OpProduct,
			Cols: append(append([]string{}, b.plan.Steps[li].Cols...), b.plan.Steps[ri].Cols...),
			L:    li, R: ri,
		})
		return id, append(append([]ra.Attr{}, la...), raAttrs...), nil
	default:
		return -1, nil, fmt.Errorf("plan: unexpected node %T outside SPC sub-queries", q)
	}
}

func condsFor(preds []ra.Pred, scope []ra.Attr) ([]Cond, error) {
	conds := make([]Cond, 0, len(preds))
	for _, p := range preds {
		switch t := p.(type) {
		case ra.EqAttr:
			pa, pb := attrPos(scope, t.L), attrPos(scope, t.R)
			if pa < 0 || pb < 0 {
				return nil, fmt.Errorf("plan: selection attribute out of scope in %s", p)
			}
			conds = append(conds, Cond{PosA: pa, PosB: pb})
		case ra.EqConst:
			pa := attrPos(scope, t.A)
			if pa < 0 {
				return nil, fmt.Errorf("plan: selection attribute out of scope in %s", p)
			}
			conds = append(conds, Cond{PosA: pa, C: t.C, IsConst: true})
		}
	}
	return conds, nil
}

func attrPos(attrs []ra.Attr, a ra.Attr) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}

func colPos(cols []string, label string) int {
	for i, c := range cols {
		if c == label {
			return i
		}
	}
	return -1
}

// joinCols computes the output columns of a natural join: left's columns
// followed by right's non-shared columns.
func joinCols(l, r []string) []string {
	out := append([]string{}, l...)
	shared := map[string]bool{}
	for _, c := range l {
		shared[c] = true
	}
	for _, c := range r {
		if !shared[c] {
			out = append(out, c)
		}
	}
	return out
}
