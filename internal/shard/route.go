// Routing analysis: decide, per normalized query, whether one shard can
// answer it exactly, whether scatter/gather over all shards is exact, or
// whether the query must be decomposed by the distributed residue
// executor (residue.go).
//
// The analysis is conservative — it may send a distributable query to the
// residue executor, never the reverse — and rests on two facts about hash
// partitioning. First, selection, projection, product and union all
// distribute over a disjoint partition of one input relation, so a query
// that reads at most one partitioned relation per conjunctive block can
// be evaluated on every shard independently and the answers unioned.
// Second, access constraints are anti-monotone: every shard's slice is a
// subset of the full instance, so D ⊨ A implies Dᵢ ⊨ A, and each shard's
// coverage verdict, indices and bounded plans remain valid on its slice.
// The cases that do NOT distribute as a whole are a difference whose
// right operand reads a partitioned relation (set difference does not
// distribute over a partition of its right side) and a join of two
// partitioned relations that is not on their partition keys (matching
// tuples may live on different shards); both go to the residue executor,
// which reuses the same dist classification per subtree to ship the
// distributable pieces and stitch the rest together router-side.
//
// The analysis is a pure function of the query, one ring and one
// placement assignment: decisions are cached per (ring epoch, placement
// generation).
package shard

import (
	"repro/internal/ra"
	"repro/internal/value"
)

// routeKind is the strategy choice for one query.
type routeKind int

// Routing strategies, ordered by preference.
const (
	routeSingle routeKind = iota
	routeScatter
	routeResidue
)

// decision is the outcome of route: a strategy, the target shard for
// routeSingle, the broadcast relations the query reads (whose apply-queue
// lanes Execute fences for read-your-writes), and the (ring epoch,
// placement generation) the decision was computed under (stale stamps are
// recomputed).
type decision struct {
	kind  routeKind
	shard int
	brels []string
	epoch uint64
	pgen  uint64
}

// route analyzes a normalized query against a ring over n members and a
// placement assignment, and picks the cheapest exact strategy.
func (r *Router) route(norm ra.Query, ring *Ring, n int, ps *partState) decision {
	var parts []ra.Attr // partition-key attribute of each partitioned occurrence
	var brels []string  // broadcast relations read (deduplicated)
	seenB := map[string]bool{}
	for _, occ := range ra.Relations(norm) {
		if key, ok := ps.keys[occ.Base]; ok {
			parts = append(parts, ra.Attr{Rel: occ.Name, Name: key})
		} else if !seenB[occ.Base] {
			seenB[occ.Base] = true
			brels = append(brels, occ.Base)
		}
	}
	if len(parts) == 0 {
		// Only broadcast relations: any shard holds all the data. Pick
		// one by structural hash so repeats of the same query reuse the
		// same shard's plan cache.
		return decision{kind: routeSingle, shard: int(structHash(norm) % uint64(n)), brels: brels}
	}
	cl := collectClasses(norm)
	// Covered-access fast path: every partitioned occurrence pins its
	// partition key to a constant, and all constants live on one shard.
	target := -1
	for _, key := range parts {
		c, ok := cl.constOf(key)
		if !ok {
			target = -1
			break
		}
		s := ring.OwnerOf(c)
		if target == -1 {
			target = s
		} else if s != target {
			target = -1
			break
		}
	}
	if target >= 0 {
		return decision{kind: routeSingle, shard: target, brels: brels}
	}
	if r.dist(norm, cl, ring, ps) != stUnsafe {
		return decision{kind: routeScatter, brels: brels}
	}
	return decision{kind: routeResidue, brels: brels}
}

// Distribution statuses of a query subtree: complete means every shard
// computes the full true result (only replicated relations below);
// partitioned means the shards' results union to the true result; unsafe
// means neither is guaranteed.
const (
	stComplete = iota
	stPartitioned
	stUnsafe
)

// dist classifies a subtree. Classes cl carry the equality atoms of the
// whole normalized query; any atom equating attributes of two occurrences
// necessarily sits in a selection dominating both (occurrence names are
// unique and scoped), so using them at a product below is sound.
func (r *Router) dist(q ra.Query, cl *classes, ring *Ring, ps *partState) int {
	switch t := q.(type) {
	case *ra.Relation:
		if _, ok := ps.keys[t.Base]; ok {
			return stPartitioned
		}
		return stComplete
	case *ra.Select:
		return r.dist(t.In, cl, ring, ps)
	case *ra.Project:
		return r.dist(t.In, cl, ring, ps)
	case *ra.Product:
		l, rr := r.dist(t.L, cl, ring, ps), r.dist(t.R, cl, ring, ps)
		if l == stUnsafe || rr == stUnsafe {
			return stUnsafe
		}
		if l == stPartitioned && rr == stPartitioned {
			// A join of two partitioned sides is exact only when every
			// matching pair is co-located: all partition keys below this
			// product must be equated (or pinned to keys of one shard).
			if !r.coLocated(t, cl, ring, ps) {
				return stUnsafe
			}
			return stPartitioned
		}
		if l == stPartitioned || rr == stPartitioned {
			return stPartitioned
		}
		return stComplete
	case *ra.Union:
		l, rr := r.dist(t.L, cl, ring, ps), r.dist(t.R, cl, ring, ps)
		if l == stUnsafe || rr == stUnsafe {
			return stUnsafe
		}
		if l == stComplete && rr == stComplete {
			return stComplete
		}
		return stPartitioned
	case *ra.Diff:
		l, rr := r.dist(t.L, cl, ring, ps), r.dist(t.R, cl, ring, ps)
		if l == stUnsafe || rr != stComplete {
			// L − R distributes over a partition of L but not of R: a row
			// surviving on one shard might be cancelled by an R-tuple
			// living on another.
			return stUnsafe
		}
		return l
	default:
		return stUnsafe
	}
}

// coLocated reports whether all partition-key attributes of partitioned
// occurrences under q are forced equal (one equality class) or pinned to
// constants hashing to one shard — either way, tuples that can join are
// on the same shard.
func (r *Router) coLocated(q ra.Query, cl *classes, ring *Ring, ps *partState) bool {
	roots := map[ra.Attr]bool{}
	var keys []ra.Attr
	for _, occ := range ra.Relations(q) {
		if key, ok := ps.keys[occ.Base]; ok {
			a := ra.Attr{Rel: occ.Name, Name: key}
			keys = append(keys, a)
			roots[cl.find(a)] = true
		}
	}
	if len(roots) <= 1 {
		return true
	}
	shard := -1
	for _, a := range keys {
		c, ok := cl.constOf(a)
		if !ok {
			return false
		}
		s := ring.OwnerOf(c)
		if shard == -1 {
			shard = s
		} else if s != shard {
			return false
		}
	}
	return true
}

// classes is a union-find over attribute occurrences with an optional
// constant per class, built from every equality atom of the query.
type classes struct {
	parent map[ra.Attr]ra.Attr
	consts map[ra.Attr]value.Value
}

// collectClasses gathers the equality atoms of every selection in norm.
// Occurrence names are globally unique after normalization, so one global
// structure is sound: an atom can only reference occurrences in its own
// scope, and scopes never alias.
func collectClasses(norm ra.Query) *classes {
	cl := &classes{parent: map[ra.Attr]ra.Attr{}, consts: map[ra.Attr]value.Value{}}
	ra.Walk(norm, func(n ra.Query) {
		sel, ok := n.(*ra.Select)
		if !ok {
			return
		}
		for _, p := range sel.Preds {
			switch t := p.(type) {
			case ra.EqAttr:
				cl.union(t.L, t.R)
			case ra.EqConst:
				cl.bind(t.A, t.C)
			}
		}
	})
	return cl
}

func (cl *classes) find(a ra.Attr) ra.Attr {
	p, ok := cl.parent[a]
	if !ok || p == a {
		return a
	}
	root := cl.find(p)
	cl.parent[a] = root
	return root
}

func (cl *classes) union(a, b ra.Attr) {
	ra_, rb := cl.find(a), cl.find(b)
	if ra_ == rb {
		return
	}
	cl.parent[ra_] = rb
	if c, ok := cl.consts[ra_]; ok {
		delete(cl.consts, ra_)
		if _, exists := cl.consts[rb]; !exists {
			cl.consts[rb] = c
		}
	}
}

func (cl *classes) bind(a ra.Attr, c value.Value) {
	root := cl.find(a)
	if _, exists := cl.consts[root]; !exists {
		cl.consts[root] = c
	}
}

// constOf returns the constant a is equated to, if any.
func (cl *classes) constOf(a ra.Attr) (value.Value, bool) {
	c, ok := cl.consts[cl.find(a)]
	return c, ok
}

// structHash digests the structure of a normalized query for shard
// affinity of unpartitioned queries: node kinds, relation bases, and
// predicate content. Collisions only co-locate two queries on a shard;
// they never affect correctness.
func structHash(q ra.Query) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	ra.Walk(q, func(n ra.Query) {
		switch t := n.(type) {
		case *ra.Relation:
			mix("R")
			mix(t.Base)
		case *ra.Select:
			mix("S")
			for _, p := range t.Preds {
				mix(p.String())
			}
		case *ra.Project:
			mix("P")
			for _, a := range t.Attrs {
				mix(a.Name)
			}
		case *ra.Product:
			mix("X")
		case *ra.Union:
			mix("U")
		case *ra.Diff:
			mix("D")
		}
	})
	return h
}
