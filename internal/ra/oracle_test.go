package ra

// This file keeps the string-building canonicalizer that computed query
// fingerprints before ra.KeyOf: colour-refinement signatures as strings,
// a rebuilt canonical tree, renaming, predicates sorted by their text, and
// a serialization hashed with SHA-256. It is the oracle the equivalence
// tests hold KeyOf against (equal keys exactly when equal oracle
// fingerprints), exported to the external test package by the Oracle*
// names below.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// OracleCanonical returns a canonical normal form of q: relation occurrences are
// renamed to position-independent names, conjuncts of a product under a
// projection are put in a stable order, union operands are sorted,
// duplicate and reflexive equality atoms are folded away, and each
// selection's equality atoms are re-emitted in a canonical star shape per
// equivalence class (constants attached to the class representative).
// The result is A-equivalent to q on every instance: atom reordering is
// sound because projections and selections address columns by name, and
// union is commutative; only Diff and raw positional contexts keep their
// operand order.
//
// Two queries that differ only in variable naming, atom order within a
// rule body, redundant equality atoms, or union operand order canonicalize
// to the same tree.
func OracleCanonical(q Query, s Schema) (Query, error) {
	norm, err := Normalize(q, s)
	if err != nil {
		return nil, err
	}
	return oracleCanonicalize(norm), nil
}

// OracleFingerprint returns a stable hex digest identifying q up to canonical
// form: OracleFingerprint(q1) == OracleFingerprint(q2) implies q1 and q2 evaluate to
// the same answer (as a set of rows) on every database of s. The converse
// does not hold — semantically equal but structurally dissimilar queries
// may fingerprint apart, costing a cache miss, never a wrong answer.
func OracleFingerprint(q Query, s Schema) (string, error) {
	norm, err := Normalize(q, s)
	if err != nil {
		return "", err
	}
	return OracleFingerprintNormalized(norm), nil
}

// OracleFingerprintNormalized is OracleFingerprint for a query that is already in the
// normal form Normalize produces (all relation occurrences distinct and
// valid against the schema).
func OracleFingerprintNormalized(norm Query) string {
	sum := sha256.Sum256([]byte(oracleSerialize(oracleCanonicalize(norm))))
	return hex.EncodeToString(sum[:])
}

// oracleCanonicalize runs the rename-free pipeline on an already normalized
// query: structural reordering, then global canonical renaming, then
// predicate re-emission under the new names.
func oracleCanonicalize(norm Query) Query {
	sigs := oracleSignatures(norm)
	restructured := oracleCanonOrder(norm, false, sigs)
	seq := 0
	ren := map[string]string{}
	for _, r := range Relations(restructured) {
		seq++
		ren[r.Name] = fmt.Sprintf("%s~%d", r.Base, seq)
	}
	renamed := oracleRenameAll(restructured, ren)
	return oracleCanonPreds(renamed)
}

// --- structural reordering -------------------------------------------------

// oracleCanonOrder reorders commutative structure. sortable reports whether the
// current subtree's column order is insulated from the result by an
// enclosing Project (columns addressed by name), so products below may be
// freely reordered; Union and Diff consume columns positionally and reset
// it.
func oracleCanonOrder(q Query, sortable bool, sigs map[string]string) Query {
	switch t := q.(type) {
	case *Relation:
		return t
	case *Project:
		// A projection addresses its input by attribute name: everything
		// below (until the next positional operator) may be reordered.
		return &Project{In: oracleCanonOrder(t.In, true, sigs), Attrs: append([]Attr(nil), t.Attrs...)}
	case *Select:
		return &Select{In: oracleCanonOrder(t.In, sortable, sigs), Preds: append([]Pred(nil), t.Preds...)}
	case *Product:
		leaves := oracleFlattenProduct(t)
		for i, l := range leaves {
			leaves[i] = oracleCanonOrder(l, sortable, sigs)
		}
		if sortable {
			leaves = oracleSortLeaves(leaves, sigs)
		}
		out := leaves[0]
		for _, l := range leaves[1:] {
			out = &Product{L: out, R: l}
		}
		return out
	case *Union:
		leaves := oracleFlattenUnion(t)
		for i, l := range leaves {
			leaves[i] = oracleCanonOrder(l, false, sigs)
		}
		// Union is commutative and associative; order operands by their
		// standalone canonical serialization, which is name-independent.
		// Each operand is re-canonicalized here, so deeply nested unions
		// pay O(depth) extra passes — fine for paper-scale queries (a
		// handful of operands); a memoized bottom-up key would be the
		// upgrade if query shapes ever grow.
		keys := make([]string, len(leaves))
		for i, l := range leaves {
			keys[i] = oracleSerialize(oracleCanonicalize(l))
		}
		idx := make([]int, len(leaves))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		sorted := make([]Query, len(leaves))
		for i, j := range idx {
			sorted[i] = leaves[j]
		}
		leaves = sorted
		out := leaves[0]
		for _, l := range leaves[1:] {
			out = &Union{L: out, R: l}
		}
		return out
	case *Diff:
		return &Diff{L: oracleCanonOrder(t.L, false, sigs), R: oracleCanonOrder(t.R, false, sigs)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}

// oracleFlattenProduct returns the non-product leaves of a product tree in
// left-to-right order.
func oracleFlattenProduct(q Query) []Query {
	if p, ok := q.(*Product); ok {
		return append(oracleFlattenProduct(p.L), oracleFlattenProduct(p.R)...)
	}
	return []Query{q}
}

// oracleFlattenUnion returns the non-union leaves of a union tree in order.
func oracleFlattenUnion(q Query) []Query {
	if u, ok := q.(*Union); ok {
		return append(oracleFlattenUnion(u.L), oracleFlattenUnion(u.R)...)
	}
	return []Query{q}
}

// oracleSortLeaves stably orders product conjuncts by a name-independent key:
// relation occurrences use their structural signature, other subtrees their
// standalone canonical serialization. Ties keep the original order, which
// preserves determinism without claiming full graph canonization (query
// isomorphism is GI-hard; a coarse signature only costs cache misses).
func oracleSortLeaves(leaves []Query, sigs map[string]string) []Query {
	keys := make([]string, len(leaves))
	for i, l := range leaves {
		if r, ok := l.(*Relation); ok {
			keys[i] = "r:" + sigs[r.Name]
		} else {
			keys[i] = "q:" + oracleSerialize(oracleCanonicalize(l))
		}
	}
	idx := make([]int, len(leaves))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]Query, len(leaves))
	for i, j := range idx {
		out[i] = leaves[j]
	}
	return out
}

// --- occurrence oracleSignatures -------------------------------------------------

// oracleSignatures assigns every relation occurrence a name-independent
// structural signature by color refinement: round 0 is the base relation
// name; a refinement round folds in the occurrence's equality classes
// (join partners by their previous-round signature, bound constants) and
// its projection positions. A second round runs only when the first
// leaves duplicate oracleSignatures — whether it does is a property of the
// signature multiset, not of occurrence order, so the adaptive cutoff is
// itself canonical.
func oracleSignatures(q Query) map[string]string {
	rels := Relations(q)
	cur := make(map[string]string, len(rels))
	for _, r := range rels {
		cur[r.Name] = r.Base
	}

	// Round-independent structure: the equality classes of every Select
	// (computed once) and the projection features. A projected attribute
	// stands for its whole equality class (π_a(σ_{a=b}E) ≡ π_b(σ_{a=b}E)),
	// so the output feature attaches to every member of the class — head
	// oracleSignatures must not depend on which member the query projected.
	classesBySel := map[*Select][]oracleEqClass{}
	getClasses := func(sel *Select) []oracleEqClass {
		cls, ok := classesBySel[sel]
		if !ok {
			cls = oracleClassesOf(sel.Preds)
			classesBySel[sel] = cls
		}
		return cls
	}
	var selects []*Select
	headFeats := map[string][]string{}
	Walk(q, func(n Query) {
		switch t := n.(type) {
		case *Select:
			getClasses(t)
			selects = append(selects, t)
		case *Project:
			var classes []oracleEqClass
			if sel, ok := t.In.(*Select); ok {
				classes = getClasses(sel)
			}
			for i, a := range t.Attrs {
				members := []Attr{a}
				for _, cls := range classes {
					for _, m := range cls.attrs {
						if m == a {
							members = cls.attrs
							break
						}
					}
				}
				for _, m := range members {
					headFeats[m.Rel] = append(headFeats[m.Rel], fmt.Sprintf("h:%d:%s", i, m.Name))
				}
			}
		}
	})

	round := func(cur map[string]string) map[string]string {
		feats := make(map[string][]string, len(rels))
		for occ, hf := range headFeats {
			feats[occ] = append([]string(nil), hf...)
		}
		for _, sel := range selects {
			for _, cls := range classesBySel[sel] {
				constKey := oracleConstsKey(cls.consts)
				for _, a := range cls.attrs {
					others := make([]string, 0, len(cls.attrs)-1)
					for _, b := range cls.attrs {
						if b == a {
							continue
						}
						others = append(others, cur[b.Rel]+"."+b.Name)
					}
					sort.Strings(others)
					feats[a.Rel] = append(feats[a.Rel],
						"e:"+a.Name+":["+strings.Join(others, ",")+"]:{"+constKey+"}")
				}
			}
		}
		next := make(map[string]string, len(cur))
		for _, r := range rels {
			fs := feats[r.Name]
			sort.Strings(fs)
			next[r.Name] = r.Base + "|" + strings.Join(fs, ";")
		}
		return next
	}

	s1 := round(cur)
	if oracleAllDistinct(s1) {
		return s1
	}
	return round(s1)
}

// oracleAllDistinct reports whether every occurrence already has a unique
// signature — an order-independent property of the map's value multiset.
func oracleAllDistinct(sigs map[string]string) bool {
	seen := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// --- predicate canonicalization -------------------------------------------

type oracleEqClass struct {
	attrs  []Attr
	consts []value.Value
}

// oracleClassesOf computes the equality equivalence classes of a conjunction:
// union-find over attr=attr atoms, constants attached to their attr's
// class. Classes are returned with attrs sorted and duplicate constants
// folded, ordered by their least attribute.
func oracleClassesOf(preds []Pred) []oracleEqClass {
	parent := map[Attr]Attr{}
	var find func(a Attr) Attr
	find = func(a Attr) Attr {
		if p, ok := parent[a]; ok && p != a {
			r := find(p)
			parent[a] = r
			return r
		}
		if _, ok := parent[a]; !ok {
			parent[a] = a
		}
		return parent[a]
	}
	union := func(a, b Attr) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Deterministic root: keep the lexicographically smaller.
			if rb.Less(ra) {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	consts := map[Attr][]value.Value{}
	for _, p := range preds {
		switch t := p.(type) {
		case EqAttr:
			union(t.L, t.R)
		case EqConst:
			find(t.A)
			consts[t.A] = append(consts[t.A], t.C)
		}
	}
	members := map[Attr][]Attr{}
	for a := range parent {
		r := find(a)
		members[r] = append(members[r], a)
	}
	out := make([]oracleEqClass, 0, len(members))
	for r, ms := range members {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Less(ms[j]) })
		var cs []value.Value
		for _, a := range ms {
			cs = append(cs, consts[a]...)
		}
		sort.Slice(cs, func(i, j int) bool { return oracleValueLess(cs[i], cs[j]) })
		// Fold duplicate constants.
		dedup := cs[:0]
		for i, c := range cs {
			if i == 0 || cs[i-1] != c {
				dedup = append(dedup, c)
			}
		}
		out = append(out, oracleEqClass{attrs: ms, consts: dedup})
		_ = r
	}
	sort.Slice(out, func(i, j int) bool { return out[i].attrs[0].Less(out[j].attrs[0]) })
	return out
}

func oracleValueLess(a, b value.Value) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	return a.Less(b)
}

func oracleConstsKey(cs []value.Value) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.SQL()
	}
	return strings.Join(parts, ",")
}

// oracleCanonPreds rebuilds every selection's predicate list from its equality
// classes: for each class the least attribute is the representative, joined
// to every other member and to each distinct constant. This folds duplicate
// atoms, drops reflexive a = a atoms, and makes chain- vs star-shaped
// join conditions with the same closure render identically. A class bound
// to two different constants keeps both atoms (the selection is provably
// empty, and canonical form preserves that).
func oracleCanonPreds(q Query) Query {
	switch t := q.(type) {
	case *Relation:
		return t
	case *Select:
		in := oracleCanonPreds(t.In)
		var preds []Pred
		for _, cls := range oracleClassesOf(t.Preds) {
			rep := cls.attrs[0]
			for _, a := range cls.attrs[1:] {
				preds = append(preds, EqAttr{L: rep, R: a})
			}
			for _, c := range cls.consts {
				preds = append(preds, EqConst{A: rep, C: c})
			}
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i].String() < preds[j].String() })
		if len(preds) == 0 {
			return in
		}
		return &Select{In: in, Preds: preds}
	case *Project:
		in := oracleCanonPreds(t.In)
		attrs := t.Attrs
		// Fold each projected attribute through the equality classes of
		// the selection directly below: all members carry equal values, so
		// projecting the class representative is equivalent and canonical.
		if sel, ok := in.(*Select); ok {
			rep := map[Attr]Attr{}
			for _, cls := range oracleClassesOf(sel.Preds) {
				for _, m := range cls.attrs {
					rep[m] = cls.attrs[0]
				}
			}
			folded := make([]Attr, len(attrs))
			for i, a := range attrs {
				if r, ok := rep[a]; ok {
					folded[i] = r
				} else {
					folded[i] = a
				}
			}
			attrs = folded
		}
		return &Project{In: in, Attrs: attrs}
	case *Product:
		return &Product{L: oracleCanonPreds(t.L), R: oracleCanonPreds(t.R)}
	case *Union:
		return &Union{L: oracleCanonPreds(t.L), R: oracleCanonPreds(t.R)}
	case *Diff:
		return &Diff{L: oracleCanonPreds(t.L), R: oracleCanonPreds(t.R)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}

// oracleRenameAll applies the occurrence renaming to every relation, predicate
// and projection attribute of the tree.
func oracleRenameAll(q Query, ren map[string]string) Query {
	switch t := q.(type) {
	case *Relation:
		name := t.Name
		if nn, ok := ren[name]; ok {
			name = nn
		}
		return &Relation{Name: name, Base: t.Base}
	case *Select:
		return &Select{In: oracleRenameAll(t.In, ren), Preds: rewritePreds(t.Preds, ren)}
	case *Project:
		attrs := make([]Attr, len(t.Attrs))
		for i, a := range t.Attrs {
			attrs[i] = renameAttr(a, ren)
		}
		return &Project{In: oracleRenameAll(t.In, ren), Attrs: attrs}
	case *Product:
		return &Product{L: oracleRenameAll(t.L, ren), R: oracleRenameAll(t.R, ren)}
	case *Union:
		return &Union{L: oracleRenameAll(t.L, ren), R: oracleRenameAll(t.R, ren)}
	case *Diff:
		return &Diff{L: oracleRenameAll(t.L, ren), R: oracleRenameAll(t.R, ren)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}

// oracleSerialize renders a canonicalized tree as an unambiguous string; equal
// strings mean structurally identical trees.
func oracleSerialize(q Query) string {
	var sb strings.Builder
	oracleWriteSerial(&sb, q)
	return sb.String()
}

func oracleWriteSerial(sb *strings.Builder, q Query) {
	switch t := q.(type) {
	case *Relation:
		sb.WriteString("rel(")
		sb.WriteString(t.Base)
		sb.WriteString(" as ")
		sb.WriteString(t.Name)
		sb.WriteString(")")
	case *Select:
		sb.WriteString("sel[")
		for i, p := range t.Preds {
			if i > 0 {
				sb.WriteString(";")
			}
			sb.WriteString(p.String())
		}
		sb.WriteString("](")
		oracleWriteSerial(sb, t.In)
		sb.WriteString(")")
	case *Project:
		sb.WriteString("proj[")
		for i, a := range t.Attrs {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(a.String())
		}
		sb.WriteString("](")
		oracleWriteSerial(sb, t.In)
		sb.WriteString(")")
	case *Product:
		sb.WriteString("prod(")
		oracleWriteSerial(sb, t.L)
		sb.WriteString(",")
		oracleWriteSerial(sb, t.R)
		sb.WriteString(")")
	case *Union:
		sb.WriteString("uni(")
		oracleWriteSerial(sb, t.L)
		sb.WriteString(",")
		oracleWriteSerial(sb, t.R)
		sb.WriteString(")")
	case *Diff:
		sb.WriteString("diff(")
		oracleWriteSerial(sb, t.L)
		sb.WriteString(",")
		oracleWriteSerial(sb, t.R)
		sb.WriteString(")")
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}

// OracleSerialize renders any tree in the serialization format KeyOf
// hashes, so a test can check KeyOf against the tree Canonical builds.
func OracleSerialize(q Query) string { return oracleSerialize(q) }
