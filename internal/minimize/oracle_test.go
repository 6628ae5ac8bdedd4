package minimize

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/ra"
)

// oracle holds the minimizers as they were before trial subsets became
// masks over a prepared query: every trial is an access.Schema copy
// checked from scratch, and the hyperpath seed searches plan.Hypergraph by
// label. They are the test oracle Minimize, MinADAG, MinAE and IsMinimal
// are held to. visit, when set, sees every schema the oracle checks.
type oracle struct {
	visit func(*access.Schema)
}

func (o *oracle) check(q ra.Query, s ra.Schema, A *access.Schema) (*cover.Result, error) {
	if o.visit != nil {
		o.visit(A)
	}
	return cover.Check(q, s, A)
}

// MinA is the greedy minA.
func (o *oracle) MinA(res *cover.Result, opts Options) (*access.Schema, error) {
	if !res.Covered {
		return nil, fmt.Errorf("minimize: query is not covered")
	}
	if opts.C1 == 0 {
		opts.C1 = 1
	}
	if opts.C2 == 0 {
		opts.C2 = 1
	}
	cur := access.NewSchema(res.Access.Constraints...)
	baseCov := coveredCount(res)

	// Seeding: select the constraints on minimum-weight hyperpaths to the
	// needed classes (the Dijkstra-style search is valid on cyclic
	// hypergraphs too), plus the chosen indexing constraints. This both
	// shrinks the quadratic greedy loop's candidate set and starts from
	// cheap derivations — e.g. an N=6 chain is preferred over an N=304
	// shortcut even before the greedy refinement. Coverage is re-verified;
	// on failure we fall back to the full schema.
	if seed, err := oracleShortestPathSupport(res); err == nil && len(seed) < cur.Len() {
		trial := cur.Subset(seed)
		tr, err := o.check(res.Query, res.Schema, trial)
		if err != nil {
			return nil, err
		}
		if tr.Covered {
			cur = trial
			baseCov = coveredCount(tr)
		}
	}
	for {
		type cand struct {
			key    string
			weight float64
		}
		var best *cand
		var bestRes *cover.Result
		var bestSchema *access.Schema
		for _, c := range cur.Constraints {
			trial := cur.Without(c.Key())
			tr, err := o.check(res.Query, res.Schema, trial)
			if err != nil {
				return nil, err
			}
			if !tr.Covered {
				continue
			}
			loss := baseCov - coveredCount(tr)
			if loss < 0 {
				loss = 0
			}
			w := (opts.C1 * float64(c.N)) / (opts.C2 * float64(loss+1))
			if best == nil || w > best.weight || (w == best.weight && c.Key() < best.key) {
				best = &cand{key: c.Key(), weight: w}
				bestRes = tr
				bestSchema = trial
			}
		}
		if best == nil {
			return cur, nil
		}
		cur = bestSchema
		baseCov = coveredCount(bestRes)
	}
}

// IsMinimal verifies that removing any single constraint from Am breaks
// coverage — the guarantee of Theorem 10(1).
func (o *oracle) IsMinimal(q ra.Query, s ra.Schema, Am *access.Schema) (bool, error) {
	for _, c := range Am.Constraints {
		tr, err := o.check(q, s, Am.Without(c.Key()))
		if err != nil {
			return false, err
		}
		if tr.Covered {
			return false, nil
		}
	}
	return true, nil
}

// MinADAG is MinADAG over oracleShortestPathSupport and the oracle finish.
func (o *oracle) MinADAG(res *cover.Result) (*access.Schema, error) {
	if !res.Covered {
		return nil, fmt.Errorf("minimize: query is not covered")
	}
	if !IsAcyclic(res) {
		return nil, fmt.Errorf("minimize: instance is not acyclic")
	}
	keep, err := oracleShortestPathSupport(res)
	if err != nil {
		return nil, err
	}
	return o.finish(res, keep)
}

// MinAE is MinAE with the oracle finish. The Steiner search itself did not
// change, so steinerSupport is shared.
func (o *oracle) MinAE(res *cover.Result) (*access.Schema, error) {
	keep, err := steinerSupport(res)
	if err != nil {
		return nil, err
	}
	return o.finish(res, keep)
}

// oracleShortestPathSupport returns the keys of the constraints on
// minimum-weight hyperpaths, searched on plan.Hypergraph by label.
func oracleShortestPathSupport(res *cover.Result) (map[string]bool, error) {
	g, root := plan.Hypergraph(res)
	costs := g.ShortestHyperpaths(root)
	keep := map[string]bool{}

	addPath := func(target hypergraph.NodeID) error {
		edges, ok := costs.HyperpathEdges(g, target)
		if !ok {
			return fmt.Errorf("minimize: no hyperpath to %s", g.Label(target))
		}
		for _, ei := range edges {
			if f, isFD := g.Edges[ei].Payload.(plan.FDEdge); isFD {
				keep[f.AC.Base.Key()] = true
			}
		}
		return nil
	}

	for si, sub := range res.Subs {
		// Targets: needed non-constant classes.
		constSet := map[ra.Attr]bool{}
		for _, c := range sub.ConstClasses {
			constSet[c] = true
		}
		for _, rep := range sub.XHat {
			if constSet[rep] {
				continue
			}
			node, ok := g.Lookup(plan.ClassLabel(si, rep))
			if !ok {
				return nil, fmt.Errorf("minimize: no node for class %s", rep)
			}
			if err := addPath(node); err != nil {
				return nil, err
			}
		}
		// Indexing constraints: the chosen minimum-N index per occurrence,
		// plus hyperpaths making their X sides covered.
		for rel, ac := range sub.IndexBy {
			keep[ac.Base.Key()] = true
			for _, x := range ac.XAttrs(rel) {
				rep := sub.Classes.Rep(x)
				if constSet[rep] {
					continue
				}
				node, ok := g.Lookup(plan.ClassLabel(si, rep))
				if !ok {
					return nil, fmt.Errorf("minimize: no node for class %s", rep)
				}
				if err := addPath(node); err != nil {
					return nil, err
				}
			}
		}
	}
	return keep, nil
}

// finish turns the kept constraint keys into a schema and verifies
// coverage.
func (o *oracle) finish(res *cover.Result, keep map[string]bool) (*access.Schema, error) {
	Am := res.Access.Subset(keep)
	check, err := o.check(res.Query, res.Schema, Am)
	if err != nil {
		return nil, err
	}
	if check.Covered {
		return Am, nil
	}
	return o.MinA(res, DefaultOptions())
}
