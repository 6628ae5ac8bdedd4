// Distributed residue execution: evaluating queries whose shape does not
// distribute as a whole, without any engine that holds a full copy of the
// database. The router decomposes the normalized query by the same
// per-subtree classification routing uses (dist in route.go):
//
//   - a complete subtree (only broadcast relations below) is shipped to
//     one member, picked by structural hash for plan/scan affinity;
//   - a partitioned subtree (distributes over the sharding) is shipped
//     to every member concurrently on the bounded worker pools and the
//     fragments are unioned — the scatter/gather merge, reused at
//     subtree granularity;
//   - the operators above the shipped subtrees — the residue proper —
//     run router-side: selections filter, projections project, unions
//     and differences combine by set semantics, and a non-co-located
//     join runs as a semi-join reduction followed by a hash shuffle over
//     the member pools (shuffle.go).
//
// Subtrees are evaluated through core.Engine.EvalSubtree (conventional
// evaluation), whose column labels are derived deterministically from the
// subtree alone — so fragments of the same subtree computed on different
// shards union positionally, exactly like whole-query scatter/gather.
//
// # Soundness of early key filtering
//
// The shuffle joins two subtree results only on their linked equality
// classes and drops pairs with mismatched link values before the parent
// selection runs. This is sound: link classes between two product
// branches arise only from EqAttr chains, and every chain edge is a
// selection predicate that is an ancestor of both endpoint occurrences —
// normalization gives occurrences globally unique names and validates
// predicate scope, so an edge's selection necessarily dominates both
// sides it equates. Each edge is therefore enforced either inside a
// shipped subtree (the subtree's own selections run within conventional
// evaluation) or at a dominating router-side selection above the product;
// dropping pairs the chain already condemns can never change the final
// answer. Scope validation also means occurrences under a Diff or Union
// right operand are invisible above it, so every chain edge crossing into
// such a subtree is enforced before its output row set is formed — early
// filtering stays exact even under difference ancestors.
//
// # Consistency
//
// The executor runs under the router's read fence (Execute holds rs
// shared) with one ring state and one placement state captured for the
// whole query, and Execute fences the apply-queue lanes of every
// broadcast relation the query reads before evaluation starts. A
// placement move (move.go) drains readers after its flip and before its
// sweep, so every member set the executor unions over holds a complete —
// possibly surplus, never deficient — cover of each subtree's data, and
// set-union merging makes surplus copies harmless.
package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ra"
)

// execResidue answers a query routed to the distributed residue executor.
// The report mirrors a single engine's: the routing anchor analyzes the
// query once (coverage verdicts are data-independent, so any member's
// verdict is the cluster's), uncovered queries fail with
// core.ErrNotCovered exactly like a single engine unless the baseline
// fallback is on, and the stats aggregate the work of every shipped
// subtree.
func (r *Router) execResidue(norm ra.Query, fp string, opts core.Options, st *ringState, ps *partState) (*exec.Table, *core.Report, error) {
	start := time.Now()
	rep, err := st.members[0].eng.Analyze(norm, fp, opts)
	if err != nil {
		return nil, nil, err
	}
	if !rep.Covered && !opts.FallbackToBaseline {
		return nil, rep, core.ErrNotCovered
	}
	re := &residueEval{r: r, st: st, ps: ps, cl: collectClasses(norm)}
	out, _, err := re.eval(norm)
	if err != nil {
		return nil, nil, err
	}
	rep.Stats = re.stats
	rep.Stats.Duration = time.Since(start)
	return out, rep, nil
}

// residueEval is the per-query state of one residue execution: the
// captured routing views, the query's equality classes, and the
// accumulated access stats of every shipped subtree.
type residueEval struct {
	r  *Router
	st *ringState
	ps *partState
	cl *classes

	mu    sync.Mutex
	stats exec.Stats
}

// addStats folds one shipped subtree's access counters into the query's.
func (re *residueEval) addStats(s exec.Stats) {
	re.mu.Lock()
	re.stats.Accessed += s.Accessed
	re.stats.Fetched += s.Fetched
	re.stats.Scanned += s.Scanned
	re.mu.Unlock()
}

// eval evaluates one subtree, shipping it whole when its classification
// allows and decomposing it otherwise. It returns the result table and
// the attribute scope positionally labeling its columns.
func (re *residueEval) eval(q ra.Query) (*exec.Table, []ra.Attr, error) {
	switch re.r.dist(q, re.cl, re.st.ring, re.ps) {
	case stComplete:
		// Any member holds all data below q; pick by structural hash so
		// repeats reuse the same member's caches.
		m := re.st.members[int(structHash(q)%uint64(len(re.st.members)))]
		return re.onMember(m, q)
	case stPartitioned:
		return re.scatterEval(q)
	}
	switch t := q.(type) {
	case *ra.Select:
		if p, ok := t.In.(*ra.Product); ok {
			return re.selectOverProduct(t.Preds, p)
		}
		in, ia, err := re.eval(t.In)
		if err != nil {
			return nil, nil, err
		}
		out, err := exec.FilterTable(in, ia, t.Preds)
		if err != nil {
			return nil, nil, err
		}
		return out, ia, nil
	case *ra.Project:
		in, ia, err := re.eval(t.In)
		if err != nil {
			return nil, nil, err
		}
		pos := make([]int, len(t.Attrs))
		cols := make([]string, len(t.Attrs))
		for i, a := range t.Attrs {
			p := exec.AttrIndex(ia, a)
			if p < 0 {
				return nil, nil, fmt.Errorf("shard: residue projection attribute %s out of scope", a)
			}
			pos[i] = p
			cols[i] = a.String()
		}
		return exec.ProjectTable(in, pos, cols), t.Attrs, nil
	case *ra.Union:
		l, la, err := re.eval(t.L)
		if err != nil {
			return nil, nil, err
		}
		rt, _, err := re.eval(t.R)
		if err != nil {
			return nil, nil, err
		}
		return exec.UnionTables(l.Cols, l, rt), la, nil
	case *ra.Diff:
		l, la, err := re.eval(t.L)
		if err != nil {
			return nil, nil, err
		}
		rt, _, err := re.eval(t.R)
		if err != nil {
			return nil, nil, err
		}
		return exec.DiffTables(l, rt), la, nil
	case *ra.Product:
		return re.joinProduct(t)
	default:
		return nil, nil, fmt.Errorf("shard: residue executor cannot evaluate %T", q)
	}
}

// selectOverProduct pushes a residual selection's predicates into the
// product branch whose scope covers them before either branch is
// evaluated. Without the pushdown a constant-bound residue join would
// materialize the full cross product router-side and only then filter —
// quadratic in the branch sizes; with it, each shipped branch filters on
// the members' indices first and the product sees only surviving rows. A
// predicate moves only when every attribute it references lies in one
// branch's scope, so the conjunction commutes with the product and the
// satisfying row set is unchanged; cross-branch predicates stay above the
// join, where joinProduct additionally pre-filters on the linked equality
// classes.
func (re *residueEval) selectOverProduct(preds []ra.Pred, p *ra.Product) (*exec.Table, []ra.Attr, error) {
	lscope, err := ra.OutAttrs(p.L, re.r.schema)
	if err != nil {
		return nil, nil, err
	}
	rscope, err := ra.OutAttrs(p.R, re.r.schema)
	if err != nil {
		return nil, nil, err
	}
	inScope := func(pr ra.Pred, scope []ra.Attr) bool {
		switch t := pr.(type) {
		case ra.EqConst:
			return exec.AttrIndex(scope, t.A) >= 0
		case ra.EqAttr:
			return exec.AttrIndex(scope, t.L) >= 0 && exec.AttrIndex(scope, t.R) >= 0
		}
		return false
	}
	var lp, rp, rest []ra.Pred
	for _, pr := range preds {
		switch {
		case inScope(pr, lscope):
			lp = append(lp, pr)
		case inScope(pr, rscope):
			rp = append(rp, pr)
		default:
			rest = append(rest, pr)
		}
	}
	join := p
	if len(lp) > 0 || len(rp) > 0 {
		nl, nr := p.L, p.R
		if len(lp) > 0 {
			nl = &ra.Select{In: nl, Preds: lp}
		}
		if len(rp) > 0 {
			nr = &ra.Select{In: nr, Preds: rp}
		}
		join = &ra.Product{L: nl, R: nr}
	}
	out, attrs, err := re.eval(join)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 0 {
		return out, attrs, nil
	}
	filtered, err := exec.FilterTable(out, attrs, rest)
	if err != nil {
		return nil, nil, err
	}
	return filtered, attrs, nil
}

// onMember ships subtree q to one member and folds its stats in.
func (re *residueEval) onMember(m *member, q ra.Query) (*exec.Table, []ra.Attr, error) {
	m.queries.Add(1)
	t, attrs, s, err := m.eng.EvalSubtree(q)
	if err != nil {
		return nil, nil, err
	}
	re.addStats(s)
	return t, attrs, nil
}

// scatterEval ships subtree q to every member concurrently on the
// bounded worker pools and unions the fragments positionally — the
// scatter/gather merge at subtree granularity. Column labels are
// deterministic per subtree, so the fragments agree on layout; set-union
// deduplication makes any surplus mid-migration copies harmless.
func (re *residueEval) scatterEval(q ra.Query) (*exec.Table, []ra.Attr, error) {
	members := re.st.members
	if len(members) == 1 {
		return re.onMember(members[0], q)
	}
	tables := make([]*exec.Table, len(members))
	attrs := make([][]ra.Attr, len(members))
	stats := make([]exec.Stats, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i := range members {
		i := i
		wg.Add(1)
		members[i].pool.submit(func() {
			defer wg.Done()
			members[i].queries.Add(1)
			tables[i], attrs[i], stats[i], errs[i] = members[i].eng.EvalSubtree(q)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, s := range stats {
		re.addStats(s)
	}
	return exec.UnionTables(tables[0].Cols, tables...), attrs[0], nil
}
