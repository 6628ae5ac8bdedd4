package cover

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/access"
	"repro/internal/fd"
	"repro/internal/ra"
)

// Mask is a subset of an access schema: bit i stands for A.Constraints[i].
// It has as many 64-bit words as A needs, so a schema of any size fits.
// Masks name constraints by position, so a schema with two constraints of
// the same key (access.NewSchema never builds one) has two distinct bits.
type Mask []uint64

// NewMask returns the empty subset of a schema of n constraints.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// FullMask returns the subset holding all n constraints.
func FullMask(n int) Mask {
	m := NewMask(n)
	for i := range m {
		m[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		m[len(m)-1] = 1<<r - 1
	}
	return m
}

// Has reports whether constraint i is in the subset.
func (m Mask) Has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds constraint i.
func (m Mask) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes constraint i.
func (m Mask) Clear(i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// Count is the number of constraints in the subset.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of m.
func (m Mask) Clone() Mask { return append(Mask(nil), m...) }

// equal reports whether m and o hold the same constraints.
func (m Mask) equal(o Mask) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Prepared is the query side of CovChk, computed once per query: the
// validation, the max SPC sub-queries, the actualized schema A', and per
// sub-query the equality classes under dense int ids with every induced FD
// over those ids. Only the closure over the constraints still present
// depends on the subset of A being checked, so Covers and Result check any
// subset of A without repeating this work. That is what the minimizers'
// greedy trials need (Section 6).
//
// A Prepared is read-only after Prepare and safe for concurrent use.
type Prepared struct {
	query  ra.Query
	schema ra.Schema
	access *access.Schema
	act    *access.Actualized // A' of the whole of A
	actCon []int              // act.All[i]'s index in A.Constraints
	subs   []PreparedSub
	full   Mask
	// Scratch sizes for Covers: the most classes and FDs of any sub-query.
	maxClasses, maxFDs int
}

// PreparedSub is one max SPC sub-query in class ids. Class ids are dense
// and start at 0; Reps maps them back to representatives (ρU).
type PreparedSub struct {
	spc     *ra.SPC
	classes *ra.Classes
	// Reps maps a class id to its representative attribute.
	Reps []ra.Attr
	// Consts are the ids of X̂C (the classes bound to constants), XHat those
	// of X̂Qs, each in the order of the Sub fields they mirror.
	Consts, XHat []int32
	// FDs is ΣQs,A over the whole of A, in Check's order: per occurrence of
	// SPC.Rels, its actualized constraints in A order.
	FDs []PreparedFD
	// occs are the occurrences of SPC.Rels, in order.
	occs []preparedOcc

	constClasses, xhat []ra.Attr
	// watchOff/watchFD list, per class c, the FDs whose L holds c:
	// watchFD[watchOff[c]:watchOff[c+1]], ascending.
	watchOff, watchFD []int32
}

// PreparedFD is one induced FD of a sub-query in class ids.
type PreparedFD struct {
	// Con is the inducing constraint's index in A.Constraints.
	Con int
	// N is that constraint's bound.
	N int
	// L and R are the class ids of X and Y, de-duplicated, in the order of
	// the constraint's attributes.
	L, R []int32

	ac access.ActualConstraint
	fd fd.FD // the same FD over representatives, shared by every Result
}

// preparedOcc is a relation occurrence of a sub-query and its indexing
// candidates: the positions in FDs of the constraints on it whose X ∪ Y
// holds X^S_Qs. That half of the indexed-by condition does not depend on
// the subset of A, so Prepare decides it once; the other half (X inside
// the closure) is checked per subset.
type preparedOcc struct {
	name  string
	cands []int32
}

// Prepare runs the query side of CovChk on normalized query q under access
// schema A. It returns the errors Check returns.
func Prepare(q ra.Query, s ra.Schema, A *access.Schema) (*Prepared, error) {
	if err := ra.Validate(q, s); err != nil {
		return nil, err
	}
	spcs, err := ra.MaxSPC(q, s)
	if err != nil {
		return nil, err
	}
	p := &Prepared{query: q, schema: s, access: A, full: FullMask(len(A.Constraints))}
	// A', and for each actualized constraint the index in A of the one it
	// came from, walked in Actualize's order.
	p.act = A.Actualize(q)
	p.actCon = make([]int, 0, len(p.act.All))
	cons := make(map[string][]int, len(p.act.ByRel))
	for _, occ := range ra.Relations(q) {
		start := len(p.actCon)
		for i, c := range A.Constraints {
			if c.Rel == occ.Base {
				p.actCon = append(p.actCon, i)
			}
		}
		if len(p.actCon) > start {
			cons[occ.Name] = append(cons[occ.Name], p.actCon[start:]...)
		}
	}
	keys := make([]string, len(A.Constraints)) // Key() of each, built once
	p.subs = make([]PreparedSub, len(spcs))
	for i, spc := range spcs {
		if err := p.prepareSub(&p.subs[i], spc, cons, keys); err != nil {
			return nil, err
		}
		p.maxClasses = max(p.maxClasses, len(p.subs[i].Reps))
		p.maxFDs = max(p.maxFDs, len(p.subs[i].FDs))
	}
	return p, nil
}

func (p *Prepared) prepareSub(ps *PreparedSub, spc *ra.SPC, cons map[string][]int, keys []string) error {
	// Register every attribute of every occurrence, not only XQs: induced
	// FDs range over all attributes of the occurrences (their X sides may
	// use attributes outside XQs).
	var all []ra.Attr
	for _, rel := range spc.Rels {
		names, err := p.schema.Attrs(rel.Base)
		if err != nil {
			return err
		}
		for _, n := range names {
			all = append(all, ra.Attr{Rel: rel.Name, Name: n})
		}
	}
	classes := ra.NewClasses(all, spc.Preds)
	ps.spc, ps.classes = spc, classes
	ids := make(map[ra.Attr]int32, len(all))
	idOf := func(rep ra.Attr) int32 {
		if id, ok := ids[rep]; ok {
			return id
		}
		id := int32(len(ps.Reps))
		ids[rep] = id
		ps.Reps = append(ps.Reps, rep)
		return id
	}
	idsOf := func(reps []ra.Attr) []int32 {
		out := make([]int32, len(reps))
		for i, r := range reps {
			out[i] = idOf(r)
		}
		return out
	}
	ps.constClasses = classes.ConstClasses()
	ps.xhat = classes.Reps(spc.X)
	ps.Consts = idsOf(ps.constClasses)
	ps.XHat = idsOf(ps.xhat)

	// Induced FDs ΣQs,A: one per actualized constraint on an occurrence of
	// this sub-query, unified via ρU.
	ps.occs = make([]preparedOcc, len(spc.Rels))
	nFDs := 0
	for _, rel := range spc.Rels {
		nFDs += len(p.act.ByRel[rel.Name])
	}
	ps.FDs = make([]PreparedFD, 0, nFDs)
	for j, rel := range spc.Rels {
		need := spc.RelAttrs(rel.Name)
		occ := &ps.occs[j]
		occ.name = rel.Name
		for t, ac := range p.act.ByRel[rel.Name] {
			l := classes.Reps(ac.XAttrs(rel.Name))
			r := classes.Reps(ac.YAttrs(rel.Name))
			k := int32(len(ps.FDs))
			con := cons[rel.Name][t]
			if keys[con] == "" {
				keys[con] = ac.Base.Key()
			}
			ps.FDs = append(ps.FDs, PreparedFD{
				Con: con,
				N:   ac.N,
				L:   idsOf(l),
				R:   idsOf(r),
				ac:  ac,
				fd:  fd.FD{L: l, R: r, Src: keys[con], N: ac.N},
			})
			if holdsAll(ac.Constraint, need) {
				occ.cands = append(occ.cands, k)
			}
		}
	}

	// watch lists in CSR form, FDs ascending per class.
	n := len(ps.Reps)
	ps.watchOff = make([]int32, n+1)
	for _, f := range ps.FDs {
		for _, c := range f.L {
			ps.watchOff[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		ps.watchOff[c+1] += ps.watchOff[c]
	}
	ps.watchFD = make([]int32, ps.watchOff[n])
	fill := append([]int32(nil), ps.watchOff[:n]...)
	for k, f := range ps.FDs {
		for _, c := range f.L {
			ps.watchFD[fill[c]] = int32(k)
			fill[c]++
		}
	}
	return nil
}

// holdsAll reports X^S_Qs ⊆ S[XY]: every needed attribute is in c's X or Y.
func holdsAll(c access.Constraint, need []ra.Attr) bool {
	for _, a := range need {
		if !slices.Contains(c.X, a.Name) && !slices.Contains(c.Y, a.Name) {
			return false
		}
	}
	return true
}

// Len is ‖A‖, the number of constraints a mask over this query ranges over.
func (p *Prepared) Len() int { return len(p.access.Constraints) }

// Access returns the access schema A the query was prepared against.
func (p *Prepared) Access() *access.Schema { return p.access }

// Full returns a fresh mask holding the whole of A.
func (p *Prepared) Full() Mask { return p.full.Clone() }

// Subs returns the prepared max SPC sub-queries, in Result.Subs order.
// The caller must not modify them.
func (p *Prepared) Subs() []PreparedSub { return p.subs }

// Subset returns the constraints of A in mask, in A order: A.Subset of
// their keys.
func (p *Prepared) Subset(mask Mask) *access.Schema {
	out := &access.Schema{}
	for i, c := range p.access.Constraints {
		if mask.Has(i) {
			out.Constraints = append(out.Constraints, c)
		}
	}
	return out
}

// scratch is the working memory of one Covers call.
type scratch struct {
	in      []bool
	counter []int32
	queue   []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Covers reports whether the constraints of A in mask cover the query, and
// |cov(Q, A_mask)|: the closure sizes summed over the max SPC sub-queries,
// the count the minimizers' cover-loss weights compare. It is CovChk's
// per-subset half as a counting closure over class ids, and allocates
// nothing once its pooled scratch has grown to the query.
func (p *Prepared) Covers(mask Mask) (covered bool, covCount int) {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.in) < p.maxClasses {
		sc.in = make([]bool, p.maxClasses)
		sc.queue = make([]int32, 0, p.maxClasses)
	}
	if cap(sc.counter) < p.maxFDs {
		sc.counter = make([]int32, p.maxFDs)
	}
	covered = true
	for i := range p.subs {
		ps := &p.subs[i]
		in := sc.in[:len(ps.Reps)]
		sc.queue = ps.closure(mask, in, sc.counter[:len(ps.FDs)], sc.queue[:0])
		covCount += len(sc.queue)
		if covered {
			covered = allIn(in, ps.XHat) && ps.indexed(mask, in)
		}
	}
	scratchPool.Put(sc)
	return covered, covCount
}

// closure computes cov(Qs, A_mask) into in, a slice of one flag per class,
// with counter (one per FD) and queue as working memory. It returns queue
// holding the closure's class ids, seeds first.
func (ps *PreparedSub) closure(mask Mask, in []bool, counter []int32, queue []int32) []int32 {
	clear(in)
	for _, c := range ps.Consts {
		if !in[c] {
			in[c] = true
			queue = append(queue, c)
		}
	}
	fire := func(k int) {
		for _, r := range ps.FDs[k].R {
			if !in[r] {
				in[r] = true
				queue = append(queue, r)
			}
		}
	}
	for k := range ps.FDs {
		if !mask.Has(ps.FDs[k].Con) {
			continue
		}
		counter[k] = int32(len(ps.FDs[k].L))
		if counter[k] == 0 {
			fire(k)
		}
	}
	for h := 0; h < len(queue); h++ {
		c := queue[h]
		for _, k := range ps.watchFD[ps.watchOff[c]:ps.watchOff[c+1]] {
			if !mask.Has(ps.FDs[k].Con) {
				continue
			}
			if counter[k]--; counter[k] == 0 {
				fire(int(k))
			}
		}
	}
	return queue
}

// IndexChoice returns, per sub-query and per occurrence of its SPC.Rels,
// the position in the sub-query's FDs of the indexing constraint that
// Result(mask) records in IndexBy, or -1 where the occurrence is not
// indexed.
func (p *Prepared) IndexChoice(mask Mask) [][]int {
	out := make([][]int, len(p.subs))
	in := make([]bool, p.maxClasses)
	counter := make([]int32, p.maxFDs)
	var queue []int32
	for i := range p.subs {
		ps := &p.subs[i]
		queue = ps.closure(mask, in[:len(ps.Reps)], counter[:len(ps.FDs)], queue[:0])
		out[i] = make([]int, len(ps.occs))
		for j := range ps.occs {
			out[i][j] = ps.chooseIndex(j, mask, in)
		}
	}
	return out
}

// indexed reports that every occurrence has a candidate in mask whose X
// classes are all in the closure in.
func (ps *PreparedSub) indexed(mask Mask, in []bool) bool {
	for j := range ps.occs {
		if ps.chooseIndex(j, mask, in) < 0 {
			return false
		}
	}
	return true
}

// chooseIndex returns the position in FDs of the indexing constraint of
// occurrence j under mask with the smallest N, the first in order on a tie,
// or -1 when the occurrence is not indexed.
func (ps *PreparedSub) chooseIndex(j int, mask Mask, in []bool) int {
	best := -1
	for _, k := range ps.occs[j].cands {
		f := &ps.FDs[k]
		if !mask.Has(f.Con) || !allIn(in, f.L) {
			continue
		}
		if best < 0 || f.N < ps.FDs[best].N {
			best = int(k)
		}
	}
	return best
}

// countIn is the number of FDs whose constraint is in mask.
func countIn(fds []PreparedFD, mask Mask) int {
	n := 0
	for k := range fds {
		if mask.Has(fds[k].Con) {
			n++
		}
	}
	return n
}

func allIn(in []bool, ids []int32) bool {
	for _, c := range ids {
		if !in[c] {
			return false
		}
	}
	return true
}

// Result builds the full coverage analysis of the query under the
// constraints of A in mask: exactly what Check returns for A restricted to
// mask, built from the prepared query side.
func (p *Prepared) Result(mask Mask) *Result {
	res := &Result{
		Query:     p.query,
		Schema:    p.schema,
		Covered:   true,
		Fetchable: true,
		Indexed:   true,
		prep:      p,
		mask:      mask.Clone(),
	}
	if mask.equal(p.full) {
		res.Access, res.Act = p.access, p.act
	} else {
		res.Access = p.Subset(mask)
		res.Act = &access.Actualized{ByRel: map[string][]access.ActualConstraint{}}
		for i, ac := range p.act.All {
			if mask.Has(p.actCon[i]) {
				res.Act.ByRel[ac.Rel] = append(res.Act.ByRel[ac.Rel], ac)
				res.Act.All = append(res.Act.All, ac)
			}
		}
	}
	res.Subs = make([]*Sub, len(p.subs))
	for i := range p.subs {
		sub := p.subs[i].result(mask)
		res.Subs[i] = sub
		res.Fetchable = res.Fetchable && sub.Fetchable
		res.Indexed = res.Indexed && sub.Indexed
	}
	res.Covered = res.Fetchable && res.Indexed
	return res
}

// result analyses one sub-query under mask. The closure replays
// fd.Set.Closure step for step over class ids, so Cov.Order and Cov.Why
// are the ones a check over the restricted schema derives.
func (ps *PreparedSub) result(mask Mask) *Sub {
	sub := &Sub{
		SPC:          ps.spc,
		Classes:      ps.classes,
		FDs:          &fd.Set{},
		ConstClasses: ps.constClasses,
		XHat:         ps.xhat,
		IndexBy:      map[string]access.ActualConstraint{},
	}
	// pos[k] is FD k's index in sub.FDs, or -1 when its constraint is out.
	pos := make([]int, len(ps.FDs))
	if n := countIn(ps.FDs, mask); n > 0 {
		sub.FDs.FDs = make([]fd.FD, 0, n)
	}
	for k := range ps.FDs {
		pos[k] = -1
		if mask.Has(ps.FDs[k].Con) {
			pos[k] = len(sub.FDs.FDs)
			sub.FDs.FDs = append(sub.FDs.FDs, ps.FDs[k].fd)
		}
	}

	n := len(ps.Reps)
	in := make([]bool, n)
	why := make([]int, n)
	var order []int32
	for _, c := range ps.Consts {
		if !in[c] {
			in[c], why[c] = true, -1
			order = append(order, c)
		}
	}
	counter := make([]int, len(ps.FDs))
	watch := make([][]int, n)
	var queue []int32
	fire := func(k int) {
		for _, r := range ps.FDs[k].R {
			if !in[r] {
				in[r], why[r] = true, pos[k]
				order = append(order, r)
				queue = append(queue, r)
			}
		}
	}
	for k := range ps.FDs {
		if pos[k] < 0 {
			continue
		}
		need := 0
		for _, c := range ps.FDs[k].L {
			if !in[c] {
				need++
				watch[c] = append(watch[c], k)
			}
		}
		counter[k] = need
		if need == 0 {
			fire(k)
		}
	}
	for h := 0; h < len(queue); h++ {
		for _, k := range watch[queue[h]] {
			if counter[k]--; counter[k] == 0 {
				fire(k)
			}
		}
	}
	sub.Cov = &fd.Derived{
		In:  make(map[ra.Attr]bool, len(order)),
		Why: make(map[ra.Attr]int, len(order)),
	}
	if len(order) > 0 {
		sub.Cov.Order = make([]ra.Attr, 0, len(order))
	}
	for _, c := range order {
		rep := ps.Reps[c]
		sub.Cov.In[rep] = true
		sub.Cov.Why[rep] = why[c]
		sub.Cov.Order = append(sub.Cov.Order, rep)
	}

	// Fetchable: ΣQs,A ⊨ X̂C → X̂Qs (Lemma 4), read off the closure.
	for _, c := range ps.XHat {
		if !in[c] {
			sub.Missing = append(sub.Missing, ps.Reps[c])
		}
	}
	sort.Slice(sub.Missing, func(i, j int) bool { return sub.Missing[i].Less(sub.Missing[j]) })
	sub.Fetchable = len(sub.Missing) == 0

	// Indexed: each occurrence S needs a constraint S(X→Y,N) with
	// S[X] ⊆ cov(Qs,A) and X^S_Qs ⊆ S[XY].
	sub.Indexed = true
	for j, occ := range ps.occs {
		k := ps.chooseIndex(j, mask, in)
		if k < 0 {
			sub.Indexed = false
			sub.NotIndexed = append(sub.NotIndexed, occ.name)
			continue
		}
		sub.IndexBy[occ.name] = ps.FDs[k].ac
	}
	sort.Strings(sub.NotIndexed)
	return sub
}
