// Residue execution: answering queries whose shape does not distribute as
// a whole, without any engine that holds a full copy of the database.
//
// The router runs the single engine's own evaluation at the router over an
// exec.Source that reads from the members (source.go): a covered query's
// bounded plan, its fetches routed to the members holding each index
// bucket, or — for an uncovered query under Options.FallbackToBaseline —
// the conventional baseline, its scans routed to the members holding each
// relation. Either way the answer and the access counts are a single
// engine's; only where the rows come from changes.
//
// # Consistency
//
// Execute holds the router's read fence (rs shared) for the whole query,
// captures one ring state and one placement state, and fences the
// apply-queue lanes of every broadcast relation the query reads before
// evaluation starts. Invariant 1 of move.go keeps every member complete
// for what that snapshot places on it, so the routed source needs no
// protocol of its own mid-move.
package shard

import (
	"errors"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ra"
)

// execResidue answers a query routed as residue. The routing anchor
// analyzes the query once (coverage verdicts and plans are
// data-independent, so any member's compile is the cluster's, and the
// anchor's plan cache keeps it). A covered query runs that bounded plan at
// the router over routed fetches, an uncovered one under the baseline
// fallback runs the baseline over routed scans (counted in
// ResidueStats.Evaluated), so report, answer and access counts are a
// single engine's. Without the fallback an uncovered query fails with
// core.ErrNotCovered, exactly like a single engine.
//
// A fetch can meet a member whose index the plan relies on is not there
// (yet, or any more): constraint changes fan out engine by engine under
// cmu, outside the read fence. Such a failure while some member's version
// differs from the plan's returns errSchemaMoved, and Execute routes the
// query again.
func (r *Router) execResidue(norm ra.Query, fp ra.Key, opts core.Options, st *ringState, ps *partState) (*exec.Table, *core.Report, error) {
	rep, err := st.members[0].eng.Analyze(norm, fp, opts)
	if err != nil {
		return nil, nil, err
	}
	src := routedSource{st: st, ps: ps, shipped: &r.resBytesShipped}
	if rep.Covered {
		out, stats, err := exec.Run(rep.Plan, src)
		if err != nil {
			if schemaMoved(st, rep.Version) {
				return nil, nil, errSchemaMoved
			}
			return nil, nil, err
		}
		rep.Stats = stats
		return out, rep, nil
	}
	if !opts.FallbackToBaseline {
		return nil, rep, core.ErrNotCovered
	}
	r.resEvaluated.Add(1)
	out, stats, err := exec.RunBaseline(norm, r.schema, src)
	if err != nil {
		return nil, nil, err
	}
	rep.Stats = stats
	return out, rep, nil
}

// errSchemaMoved reports that a routed plan failed while a constraint
// change was part-way through the members.
var errSchemaMoved = errors.New("shard: access schema changed under a routed plan")

// schemaMoved reports whether any member's access-schema version differs
// from v, the version a plan was compiled under.
func schemaMoved(st *ringState, v uint64) bool {
	for _, m := range st.members {
		if m.eng.Version() != v {
			return true
		}
	}
	return false
}
