// Package minimize implements the access minimization problem AMP(Q,A) of
// Section 6: find a subset Am ⊆ A that still covers Q while minimizing
// Σ_{R(X→Y,N)∈Am} N. The problem is NP-complete and not in APX (Theorem 9),
// so the package provides the paper's heuristics: the general greedy minA
// (Theorem 10(1)), the shortest-hyperpath minADAG for acyclic instances
// (Theorem 10(2)) and the Steiner-arborescence minAE for elementary
// instances (Theorem 10(3)).
package minimize

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/ra"
)

// Options tunes the greedy heuristic minA. C1 and C2 are the user-tunable
// normalizing coefficients of the weight w(φ) = C1·Nφ / (C2·(covloss+1)).
type Options struct {
	C1, C2 float64
}

// DefaultOptions uses C1 = C2 = 1 as in Example 9.
func DefaultOptions() Options { return Options{C1: 1, C2: 1} }

// MinA runs the general greedy heuristic: it iteratively removes the
// removable constraint of maximum weight until the remaining set is
// minimal. The result always covers the query (Theorem 10(1)).
func MinA(res *cover.Result, opts Options) (*access.Schema, error) {
	m, err := Minimize(res, opts)
	if err != nil {
		return nil, err
	}
	return m.Access, nil
}

// Minimize is MinA returning the coverage analysis of the minimized schema
// (its Access) rather than the schema alone, so a caller that goes on to
// plan generation need not check that schema again. Every trial subset is
// checked through res's prepared query, as a mask over its access schema;
// masks name constraints by position, so the schema must not repeat a key
// (access.NewSchema never does).
func Minimize(res *cover.Result, opts Options) (*cover.Result, error) {
	if !res.Covered {
		return nil, fmt.Errorf("minimize: query is not covered")
	}
	if opts.C1 == 0 {
		opts.C1 = 1
	}
	if opts.C2 == 0 {
		opts.C2 = 1
	}
	p, cur, err := res.Prepared()
	if err != nil {
		return nil, err
	}
	baseCov := coveredCount(res)

	// Seeding: select the constraints on minimum-weight hyperpaths to the
	// needed classes (the Dijkstra-style search is valid on cyclic
	// hypergraphs too), plus the chosen indexing constraints. This both
	// shrinks the quadratic greedy loop's candidate set and starts from
	// cheap derivations — e.g. an N=6 chain is preferred over an N=304
	// shortcut even before the greedy refinement. Coverage is re-verified;
	// on failure we keep the full schema.
	if seed, err := shortestPathSupport(p, cur); err == nil && seed.Count() < cur.Count() {
		if covered, n := p.Covers(seed); covered {
			cur, baseCov = seed, n
		}
	}
	cons := p.Access().Constraints
	// keys holds the constraint keys of the tie-break, each built once.
	var keys []string
	key := func(i int) string {
		if keys == nil {
			keys = make([]string, len(cons))
		}
		if keys[i] == "" {
			keys[i] = cons[i].Key()
		}
		return keys[i]
	}
	trial := cover.NewMask(len(cons))
	for {
		best, bestW, bestCov := -1, 0.0, 0
		for i := range cons {
			if !cur.Has(i) {
				continue
			}
			copy(trial, cur)
			trial.Clear(i)
			covered, n := p.Covers(trial)
			if !covered {
				continue
			}
			loss := max(baseCov-n, 0)
			w := (opts.C1 * float64(cons[i].N)) / (opts.C2 * float64(loss+1))
			if best < 0 || w > bestW || (w == bestW && key(i) < key(best)) {
				best, bestW, bestCov = i, w, n
			}
		}
		if best < 0 {
			return p.Result(cur), nil
		}
		cur.Clear(best)
		baseCov = bestCov
	}
}

// coveredCount is |cov(Q,A)| summed over the max SPC sub-queries.
func coveredCount(res *cover.Result) int {
	n := 0
	for _, sub := range res.Subs {
		n += len(sub.Cov.Order)
	}
	return n
}

// IsMinimal verifies that removing any single constraint from Am breaks
// coverage — the guarantee of Theorem 10(1).
func IsMinimal(q ra.Query, s ra.Schema, Am *access.Schema) (bool, error) {
	if Am.Len() == 0 {
		return true, nil
	}
	p, err := cover.Prepare(q, s, Am)
	if err != nil {
		return false, err
	}
	trial := p.Full()
	for i := range Am.Constraints {
		trial.Clear(i)
		if covered, _ := p.Covers(trial); covered {
			return false, nil
		}
		trial.Set(i)
	}
	return true, nil
}

// IsAcyclic reports whether (Q,A) is an acyclic instance: the attribute
// dependency relation imposed by A is not recursive (Section 6.1).
// Derivation arcs that add nothing — an FD whose derived classes are all
// in its own head, such as a membership constraint X → X — are ignored:
// they create syntactic 2-cycles but no recursive dependency.
func IsAcyclic(res *cover.Result) bool {
	g, _ := plan.Hypergraph(res)
	// Collect, per Y~ node, the classes it splits into.
	splits := map[hypergraph.NodeID][]hypergraph.NodeID{}
	for _, e := range g.Edges {
		if _, ok := e.Payload.(plan.SplitEdge); ok {
			splits[e.Head[0]] = append(splits[e.Head[0]], e.Tail)
		}
	}
	// Build the class-level digraph: head class → derived class, skipping
	// classes already in the head.
	n := g.NumNodes()
	adj := make([][]hypergraph.NodeID, n)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		if _, ok := e.Payload.(plan.FDEdge); !ok {
			continue
		}
		inHead := map[hypergraph.NodeID]bool{}
		for _, h := range e.Head {
			inHead[h] = true
		}
		for _, c := range splits[e.Tail] {
			if inHead[c] {
				continue // no-op derivation (e.g. membership X → X)
			}
			for _, h := range e.Head {
				adj[h] = append(adj[h], c)
				indeg[c]++
			}
		}
	}
	var queue []hypergraph.NodeID
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, hypergraph.NodeID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == n
}

// IsElementary reports whether every constraint of A is an indexing
// constraint R(X→X,1) or a unit constraint (|X| = |Y| = 1).
func IsElementary(A *access.Schema) bool {
	for _, c := range A.Constraints {
		if !c.IsIndexing() && !c.IsUnit() {
			return false
		}
	}
	return true
}

// MinADAG solves the acyclic case via weighted shortest hyperpaths from the
// dummy root r to every node of X̂Q \ X̂QC, plus a minimum-N indexing
// constraint per relation occurrence (Theorem 10(2)). It returns an error
// when the instance is not acyclic.
func MinADAG(res *cover.Result) (*access.Schema, error) {
	if !res.Covered {
		return nil, fmt.Errorf("minimize: query is not covered")
	}
	if !IsAcyclic(res) {
		return nil, fmt.Errorf("minimize: instance is not acyclic")
	}
	p, mask, err := res.Prepared()
	if err != nil {
		return nil, err
	}
	keep, err := shortestPathSupport(p, mask)
	if err != nil {
		return nil, err
	}
	return finish(res, p, keep)
}

// shortestPathSupport returns the constraints (a mask over p's access
// schema) on minimum-weight hyperpaths from r to every needed class, plus
// the chosen indexing constraints and the hyperpaths covering their X
// sides, on the ⟨Q,A⟩-hypergraph of the constraints in mask. The
// Dijkstra-style search is correct on the raw (possibly syntactically
// cyclic) hypergraph as long as weights are non-negative, so no-op
// membership cycles need no special casing; MinADAG gates on acyclicity
// only for its approximation bound, while MinA uses this as a cost-aware
// seed on any instance.
//
// The graph is plan.Hypergraph's, built from the prepared query: the same
// nodes in the same order and the same edges, so the same hyperpaths, but
// addressed by class id instead of by label.
func shortestPathSupport(p *cover.Prepared, mask cover.Mask) (cover.Mask, error) {
	g := hypergraph.New()
	root := g.NewNode()
	subs := p.Subs()
	// One array backs every edge's head, sized by a first pass.
	nHeads := 0
	for si := range subs {
		nHeads += len(subs[si].Consts)
		for _, f := range subs[si].FDs {
			if mask.Has(f.Con) {
				nHeads += max(len(f.L), 1) + len(f.R)
			}
		}
	}
	heads := make([]hypergraph.NodeID, 0, nHeads)
	head := func(ids ...hypergraph.NodeID) []hypergraph.NodeID {
		start := len(heads)
		heads = append(heads, ids...)
		return heads[start:len(heads):len(heads)]
	}
	edgeCon := make([]int, 0, nHeads) // per edge: the constraint of an FD edge, -1 otherwise
	nodes := make([][]hypergraph.NodeID, len(subs))
	for si := range subs {
		ps := &subs[si]
		node := make([]hypergraph.NodeID, len(ps.Reps))
		for c := range node {
			node[c] = -1
		}
		nodes[si] = node
		nodeOf := func(c int32) hypergraph.NodeID {
			if node[c] < 0 {
				node[c] = g.NewNode()
			}
			return node[c]
		}
		// Constant classes: hyperedges from r.
		for _, c := range ps.Consts {
			g.AddEdge(head(root), nodeOf(c), 0, nil)
			edgeCon = append(edgeCon, -1)
		}
		// Induced FDs: X → Y~ weighted N, then Y~ → Yi weighted 0.
		for _, f := range ps.FDs {
			if !mask.Has(f.Con) {
				continue
			}
			y := g.NewNode()
			start := len(heads)
			if len(f.L) == 0 {
				heads = append(heads, root)
			}
			for _, l := range f.L {
				heads = append(heads, nodeOf(l))
			}
			g.AddEdge(heads[start:len(heads):len(heads)], y, int64(f.N), nil)
			edgeCon = append(edgeCon, f.Con)
			for _, r := range f.R {
				g.AddEdge(head(y), nodeOf(r), 0, nil)
				edgeCon = append(edgeCon, -1)
			}
		}
	}
	costs := g.ShortestHyperpaths(root)
	keep := cover.NewMask(p.Len())

	// addPath keeps the constraints on the hyperpath to class c of
	// sub-query si.
	addPath := func(si int, c int32) error {
		ps := &subs[si]
		if nodes[si][c] < 0 {
			return fmt.Errorf("minimize: no node for class %s", ps.Reps[c])
		}
		edges, ok := costs.HyperpathEdges(g, nodes[si][c])
		if !ok {
			return fmt.Errorf("minimize: no hyperpath to class %s", ps.Reps[c])
		}
		for _, ei := range edges {
			if edgeCon[ei] >= 0 {
				keep.Set(edgeCon[ei])
			}
		}
		return nil
	}

	index := p.IndexChoice(mask)
	for si := range subs {
		ps := &subs[si]
		isConst := make([]bool, len(ps.Reps))
		for _, c := range ps.Consts {
			isConst[c] = true
		}
		// Targets: needed non-constant classes.
		for _, c := range ps.XHat {
			if isConst[c] {
				continue
			}
			if err := addPath(si, c); err != nil {
				return nil, err
			}
		}
		// Indexing constraints: the chosen minimum-N index per occurrence,
		// plus hyperpaths making their X sides covered.
		for _, k := range index[si] {
			if k < 0 {
				continue
			}
			f := &ps.FDs[k]
			keep.Set(f.Con)
			for _, c := range f.L {
				if isConst[c] {
					continue
				}
				if err := addPath(si, c); err != nil {
					return nil, err
				}
			}
		}
	}
	return keep, nil
}

// MinAE solves the elementary case by reduction to the directed minimum
// Steiner arborescence problem on the graph of unit constraints
// (Lemma 11). The dminSAP sub-problem is approximated with the greedy
// nearest-terminal algorithm (the level-1 specialization of Charikar et
// al.; see DESIGN.md). It returns an error when the instance is not
// elementary.
func MinAE(res *cover.Result) (*access.Schema, error) {
	keep, err := steinerSupport(res)
	if err != nil {
		return nil, err
	}
	p, mask, err := res.Prepared()
	if err != nil {
		return nil, err
	}
	for i, c := range p.Access().Constraints {
		if mask.Has(i) && !keep[c.Key()] {
			mask.Clear(i)
		}
	}
	return finish(res, p, mask)
}

// steinerSupport returns the keys of the constraints MinAE keeps: the
// chosen indexing constraints and the FD edges of the Steiner arborescence
// reaching every terminal.
func steinerSupport(res *cover.Result) (map[string]bool, error) {
	if !res.Covered {
		return nil, fmt.Errorf("minimize: query is not covered")
	}
	if !IsElementary(res.Access) {
		return nil, fmt.Errorf("minimize: instance is not elementary")
	}
	g, root := plan.Hypergraph(res)
	keep := map[string]bool{}

	// Terminals: needed non-constant classes across sub-queries, plus the X
	// classes of the chosen indexing constraints.
	var terminals []hypergraph.NodeID
	seen := map[hypergraph.NodeID]bool{}
	addTerminal := func(node hypergraph.NodeID) {
		if !seen[node] {
			seen[node] = true
			terminals = append(terminals, node)
		}
	}
	for si, sub := range res.Subs {
		constSet := map[ra.Attr]bool{}
		for _, c := range sub.ConstClasses {
			constSet[c] = true
		}
		for _, rep := range sub.XHat {
			if constSet[rep] {
				continue
			}
			if node, ok := g.Lookup(plan.ClassLabel(si, rep)); ok {
				addTerminal(node)
			}
		}
		for rel, ac := range sub.IndexBy {
			keep[ac.Base.Key()] = true
			for _, x := range ac.XAttrs(rel) {
				rep := sub.Classes.Rep(x)
				if !constSet[rep] {
					if node, ok := g.Lookup(plan.ClassLabel(si, rep)); ok {
						addTerminal(node)
					}
				}
			}
		}
	}
	edges, err := steinerArborescence(g, root, terminals)
	if err != nil {
		return nil, err
	}
	for _, ei := range edges {
		if f, isFD := g.Edges[ei].Payload.(plan.FDEdge); isFD {
			keep[f.AC.Base.Key()] = true
		}
	}
	return keep, nil
}

// steinerArborescence greedily grows a tree from root: repeatedly attach
// the terminal with the cheapest shortest derivation from the current tree
// (edges already in the tree become free). In the elementary case every
// hyperedge head is a single node, so shortest derivations are shortest
// paths and the classic |VT|-approximation bound applies.
func steinerArborescence(g *hypergraph.Graph, root hypergraph.NodeID, terminals []hypergraph.NodeID) ([]int, error) {
	chosen := map[int]bool{}
	remaining := append([]hypergraph.NodeID{}, terminals...)
	for len(remaining) > 0 {
		// Shortest hyperpaths with chosen edges free.
		saved := make(map[int]int64, len(chosen))
		for ei := range chosen {
			saved[ei] = g.Edges[ei].Weight
			g.Edges[ei].Weight = 0
		}
		costs := g.ShortestHyperpaths(root)
		for ei, w := range saved {
			g.Edges[ei].Weight = w
		}
		// Pick the cheapest remaining terminal.
		bestIdx, bestCost := -1, int64(0)
		for i, t := range remaining {
			edges, ok := costs.HyperpathEdges(g, t)
			if !ok {
				return nil, fmt.Errorf("minimize: terminal %s unreachable", g.Label(t))
			}
			var c int64
			for _, ei := range edges {
				if !chosen[ei] {
					c += g.Edges[ei].Weight
				}
			}
			if bestIdx < 0 || c < bestCost {
				bestIdx, bestCost = i, c
			}
		}
		t := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		edges, _ := costs.HyperpathEdges(g, t)
		for _, ei := range edges {
			chosen[ei] = true
		}
	}
	out := make([]int, 0, len(chosen))
	for ei := range chosen {
		out = append(out, ei)
	}
	sort.Ints(out)
	return out, nil
}

// finish verifies that the kept constraints (a subset of res's) still
// cover the query and returns them as a schema, falling back to the full
// schema's greedy minimization if the specialized algorithm under-selected
// (cannot happen on well-formed instances, but we never return a
// non-covering set).
func finish(res *cover.Result, p *cover.Prepared, keep cover.Mask) (*access.Schema, error) {
	if covered, _ := p.Covers(keep); covered {
		return p.Subset(keep), nil
	}
	return MinA(res, DefaultOptions())
}
