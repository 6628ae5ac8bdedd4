package cover

import (
	"sort"

	"repro/internal/access"
	"repro/internal/fd"
	"repro/internal/ra"
)

// oracleCheck is CovChk as one pass per call, the form Check had before
// the query side was prepared once: the test oracle Prepared.Result and
// Prepared.Covers are held to.
func oracleCheck(q ra.Query, s ra.Schema, A *access.Schema) (*Result, error) {
	if err := ra.Validate(q, s); err != nil {
		return nil, err
	}
	subsSPC, err := ra.MaxSPC(q, s)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Query:     q,
		Schema:    s,
		Access:    A,
		Act:       A.Actualize(q),
		Covered:   true,
		Fetchable: true,
		Indexed:   true,
	}
	for _, spc := range subsSPC {
		sub, err := oracleCheckSub(spc, s, res.Act)
		if err != nil {
			return nil, err
		}
		res.Subs = append(res.Subs, sub)
		res.Fetchable = res.Fetchable && sub.Fetchable
		res.Indexed = res.Indexed && sub.Indexed
	}
	res.Covered = res.Fetchable && res.Indexed
	return res, nil
}

func oracleCheckSub(spc *ra.SPC, s ra.Schema, act *access.Actualized) (*Sub, error) {
	// Register every attribute of every occurrence, not only XQs: induced
	// FDs range over all attributes of the occurrences (their X sides may
	// use attributes outside XQs).
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

	sub := &Sub{
		SPC:          spc,
		Classes:      classes,
		FDs:          &fd.Set{},
		ConstClasses: classes.ConstClasses(),
		XHat:         classes.Reps(spc.X),
		IndexBy:      map[string]access.ActualConstraint{},
	}

	// Induced FDs ΣQs,A: one per actualized constraint on an occurrence of
	// this sub-query, unified via ρU.
	for _, rel := range spc.Rels {
		for _, ac := range act.ByRel[rel.Name] {
			sub.FDs.Add(fd.FD{
				L:   classes.Reps(ac.XAttrs(rel.Name)),
				R:   classes.Reps(ac.YAttrs(rel.Name)),
				Src: ac.Base.Key(),
				N:   ac.N,
			})
		}
	}

	// Fetchable: ΣQs,A ⊨ X̂C → X̂Qs (Lemma 4), computed as the chase
	// cov(Qs,A) = closure of the constant classes.
	sub.Cov = sub.FDs.Closure(sub.ConstClasses)
	sub.Missing = sub.FDs.Missing(sub.ConstClasses, sub.XHat)
	sub.Fetchable = len(sub.Missing) == 0

	// Indexed: each occurrence S needs a constraint S(X→Y,N) with
	// S[X] ⊆ cov(Qs,A) and X^S_Qs ⊆ S[XY].
	sub.Indexed = true
	for _, rel := range spc.Rels {
		need := spc.RelAttrs(rel.Name)
		best, ok := oracleChooseIndex(act.ByRel[rel.Name], rel.Name, need, classes, sub.Cov)
		if !ok {
			sub.Indexed = false
			sub.NotIndexed = append(sub.NotIndexed, rel.Name)
			continue
		}
		sub.IndexBy[rel.Name] = best
	}
	sort.Strings(sub.NotIndexed)
	return sub, nil
}

// oracleChooseIndex picks the indexing constraint with the smallest N among the
// candidates that satisfy the indexed-by condition for occurrence rel.
func oracleChooseIndex(cands []access.ActualConstraint, rel string, need []ra.Attr,
	classes *ra.Classes, cov *fd.Derived) (access.ActualConstraint, bool) {
	var best access.ActualConstraint
	found := false
	for _, ac := range cands {
		if !oracleCovers(ac, rel, need, classes, cov) {
			continue
		}
		if !found || ac.N < best.N {
			best = ac
			found = true
		}
	}
	return best, found
}

func oracleCovers(ac access.ActualConstraint, rel string, need []ra.Attr,
	classes *ra.Classes, cov *fd.Derived) bool {
	for _, x := range ac.XAttrs(rel) {
		if !cov.In[classes.Rep(x)] {
			return false
		}
	}
	inXY := map[string]bool{}
	for _, x := range ac.X {
		inXY[x] = true
	}
	for _, y := range ac.Y {
		inXY[y] = true
	}
	for _, a := range need {
		if !inXY[a.Name] {
			return false
		}
	}
	return true
}
