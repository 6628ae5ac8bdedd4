// Package cover implements CovChk (Section 4): deciding in O(|Q|²+|A|) time
// whether an RA query Q is covered by an access schema A, i.e. whether every
// max SPC sub-query of Q is both fetchable via A (Lemma 4: ΣQs,A ⊨ X̂C → X̂Qs)
// and indexed by A. Covered queries are the paper's effective syntax for
// boundedly evaluable RA queries (Theorem 2).
//
// CovChk runs in two halves. Prepare does the query side once: validation,
// the max SPC sub-queries, the actualized schema A', the equality classes
// of each sub-query under dense int ids, and every induced FD over those
// ids tagged with its constraint's index in A. A subset of A is then a
// Mask, and checking it is a counting closure over class ids:
// Prepared.Covers answers the verdict and |cov(Q,A)| without allocating
// (what minA's greedy trials ask), and Prepared.Result builds the full
// Result a check of that subset returns. Check is Prepare followed by
// Result over the whole of A.
package cover

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/fd"
	"repro/internal/ra"
)

// Sub is the coverage analysis of one max SPC sub-query.
type Sub struct {
	SPC     *ra.SPC
	Classes *ra.Classes
	// FDs is ΣQs,A: the induced FDs over class representatives. Each FD is
	// tagged with the base-constraint key it was induced from.
	FDs *fd.Set
	// ConstClasses is X̂Qs_C: representatives of classes bound to constants.
	ConstClasses []ra.Attr
	// XHat is X̂Qs = ρU(XQs), de-duplicated.
	XHat []ra.Attr
	// Cov is the chase result: the closure of ConstClasses under FDs,
	// which coincides with cov(Qs,A) at class level (proof of Lemma 4).
	Cov *fd.Derived
	// Fetchable reports XQs ⊆ cov(Qs,A).
	Fetchable bool
	// Missing lists the uncovered classes of X̂Qs when not fetchable.
	Missing []ra.Attr
	// Indexed reports that every relation occurrence has an indexing
	// constraint; IndexBy records the chosen one (minimal N) per occurrence.
	Indexed    bool
	IndexBy    map[string]access.ActualConstraint
	NotIndexed []string
}

// Result is the full coverage analysis of a query.
type Result struct {
	Query  ra.Query
	Schema ra.Schema
	Access *access.Schema
	Act    *access.Actualized
	Subs   []*Sub

	Covered   bool
	Fetchable bool
	Indexed   bool

	// prep is the prepared query this analysis was built from and mask the
	// subset of prep's access schema it checked (Access).
	prep *Prepared
	mask Mask
}

// Check runs algorithm CovChk on normalized query q under access schema A:
// Prepare, then the per-subset check over the whole of A.
func Check(q ra.Query, s ra.Schema, A *access.Schema) (*Result, error) {
	p, err := Prepare(q, s, A)
	if err != nil {
		return nil, err
	}
	return p.Result(p.full), nil
}

// Prepared returns the prepared query the analysis was built from and the
// subset of its access schema the analysis checked. A Result built by hand
// rather than by Check or Prepared.Result is prepared here, over its own
// Access.
func (r *Result) Prepared() (*Prepared, Mask, error) {
	if r.prep != nil {
		return r.prep, r.mask.Clone(), nil
	}
	p, err := Prepare(r.Query, r.Schema, r.Access)
	if err != nil {
		return nil, nil, err
	}
	return p, p.Full(), nil
}

// CoveredAttrs returns cov(Qs,A) as a sorted list of class representatives.
func (s *Sub) CoveredAttrs() []ra.Attr {
	out := make([]ra.Attr, 0, len(s.Cov.Order))
	out = append(out, s.Cov.Order...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Explain renders a human-readable coverage report.
func (r *Result) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", r.Query.String())
	fmt.Fprintf(&sb, "covered: %v (fetchable: %v, indexed: %v)\n", r.Covered, r.Fetchable, r.Indexed)
	for i, sub := range r.Subs {
		fmt.Fprintf(&sb, "max SPC sub-query #%d: %s\n", i+1, sub.SPC.Root.String())
		fmt.Fprintf(&sb, "  fetchable: %v", sub.Fetchable)
		if !sub.Fetchable {
			parts := make([]string, len(sub.Missing))
			for j, a := range sub.Missing {
				parts[j] = a.String()
			}
			fmt.Fprintf(&sb, " (missing: %s)", strings.Join(parts, ", "))
		}
		sb.WriteByte('\n')
		fmt.Fprintf(&sb, "  indexed: %v", sub.Indexed)
		if !sub.Indexed {
			fmt.Fprintf(&sb, " (no index for: %s)", strings.Join(sub.NotIndexed, ", "))
		}
		sb.WriteByte('\n')
		rels := make([]string, 0, len(sub.IndexBy))
		for rel := range sub.IndexBy {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			fmt.Fprintf(&sb, "  index %s via %s\n", rel, sub.IndexBy[rel].Constraint.String())
		}
	}
	return sb.String()
}

// UsedConstraintKeys returns the keys of the base constraints referenced by
// the analysis: all constraints inducing FDs used in some chase derivation
// of a needed class, plus the chosen indexing constraints. It is the support
// set the minimizers start from.
func (r *Result) UsedConstraintKeys() map[string]bool {
	used := map[string]bool{}
	for _, sub := range r.Subs {
		// Walk back the chase derivations of the needed classes.
		var mark func(a ra.Attr)
		seen := map[ra.Attr]bool{}
		mark = func(a ra.Attr) {
			if seen[a] {
				return
			}
			seen[a] = true
			why, ok := sub.Cov.Why[a]
			if !ok || why < 0 {
				return
			}
			f := sub.FDs.FDs[why]
			if f.Src != "" {
				used[f.Src] = true
			}
			for _, l := range f.L {
				mark(l)
			}
		}
		for _, a := range sub.XHat {
			mark(a)
		}
		for rel, ac := range sub.IndexBy {
			used[ac.Base.Key()] = true
			// The X side of the chosen index must itself stay covered.
			for _, x := range ac.XAttrs(rel) {
				mark(sub.Classes.Rep(x))
			}
		}
	}
	return used
}
