// Package ra defines the relational algebra (RA) queries studied by the
// paper: selection, projection, Cartesian product, union, set difference and
// renaming over a relational schema. It provides the normal form of Section 2
// (all relation occurrences distinct), query trees, max SPC sub-query
// extraction, and the equality-atom closure ΣQ used throughout the coverage
// analysis.
//
// It also canonicalizes queries. Coverage and the bounded plan depend only
// on a query's syntax, so a serving layer may reuse one compilation for
// every spelling of the same canonical query: KeyOf digests the canonical
// form (occurrences renamed in a refinement-derived order, commutative
// operands sorted, equality atoms folded per class) without allocating,
// and Canonical builds the same form as a tree. The key is sound — equal
// keys mean equal canonical forms, hence equal answers on every database —
// but not complete: equivalent queries the bounded refinement cannot align
// key apart, which costs a cache miss, never a wrong answer (see Key).
package ra

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Schema maps base relation names to their ordered attribute names.
type Schema map[string][]string

// Attrs returns the attribute list of base relation rel.
func (s Schema) Attrs(rel string) ([]string, error) {
	a, ok := s[rel]
	if !ok {
		return nil, fmt.Errorf("ra: unknown relation %q", rel)
	}
	return a, nil
}

// HasAttr reports whether base relation rel declares attribute name.
func (s Schema) HasAttr(rel, name string) bool {
	for _, a := range s[rel] {
		if a == name {
			return true
		}
	}
	return false
}

// Relations returns the base relation names in sorted order.
func (s Schema) Relations() []string {
	out := make([]string, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	for r, as := range s {
		out[r] = append([]string(nil), as...)
	}
	return out
}

// Attr identifies an attribute of a particular relation occurrence in a
// normalized query: Rel is the occurrence name (after renaming), Name the
// attribute name.
type Attr struct {
	Rel  string
	Name string
}

// String renders the attribute as rel.name.
func (a Attr) String() string { return a.Rel + "." + a.Name }

// Less orders attributes lexicographically; used to pick deterministic
// equivalence-class representatives for the unification function ρU.
func (a Attr) Less(b Attr) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Name < b.Name
}

// Pred is an equality atom of a selection condition: either attr = attr or
// attr = constant, the forms the paper's ΣQ is built from.
type Pred interface {
	predNode()
	String() string
}

// EqAttr is the equality atom L = R between two attributes.
type EqAttr struct{ L, R Attr }

// EqConst is the equality atom A = C between an attribute and a constant.
type EqConst struct {
	A Attr
	C value.Value
}

func (EqAttr) predNode()  {}
func (EqConst) predNode() {}

func (p EqAttr) String() string  { return p.L.String() + " = " + p.R.String() }
func (p EqConst) String() string { return p.A.String() + " = " + p.C.SQL() }

// Query is a node of an RA query tree.
type Query interface {
	// Children returns the sub-queries of this node.
	Children() []Query
	// String renders the query as an RA expression.
	String() string
	queryNode()
}

// Relation is a (possibly renamed) occurrence of a base relation.
// Name is the occurrence name; Base the schema relation it renames.
// In the normal form of Section 2 every occurrence Name is distinct.
type Relation struct {
	Name string
	Base string
}

// Select applies a conjunction of equality atoms to its input.
type Select struct {
	In    Query
	Preds []Pred
}

// Project restricts the input to the listed attributes.
type Project struct {
	In    Query
	Attrs []Attr
}

// Product is the Cartesian product of two sub-queries.
type Product struct{ L, R Query }

// Union is set union; operands must have the same arity.
type Union struct{ L, R Query }

// Diff is set difference; operands must have the same arity.
type Diff struct{ L, R Query }

func (*Relation) queryNode() {}
func (*Select) queryNode()   {}
func (*Project) queryNode()  {}
func (*Product) queryNode()  {}
func (*Union) queryNode()    {}
func (*Diff) queryNode()     {}

// Children implements Query.
func (q *Relation) Children() []Query { return nil }

// Children implements Query.
func (q *Select) Children() []Query { return []Query{q.In} }

// Children implements Query.
func (q *Project) Children() []Query { return []Query{q.In} }

// Children implements Query.
func (q *Product) Children() []Query { return []Query{q.L, q.R} }

// Children implements Query.
func (q *Union) Children() []Query { return []Query{q.L, q.R} }

// Children implements Query.
func (q *Diff) Children() []Query { return []Query{q.L, q.R} }

func (q *Relation) String() string {
	if q.Name == "" || q.Name == q.Base {
		return q.Base
	}
	return fmt.Sprintf("ρ[%s](%s)", q.Name, q.Base)
}

func (q *Select) String() string {
	preds := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = p.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(preds, " ∧ "), q.In.String())
}

func (q *Project) String() string {
	attrs := make([]string, len(q.Attrs))
	for i, a := range q.Attrs {
		attrs[i] = a.String()
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(attrs, ", "), q.In.String())
}

func (q *Product) String() string {
	return fmt.Sprintf("(%s × %s)", q.L.String(), q.R.String())
}

func (q *Union) String() string {
	return fmt.Sprintf("(%s ∪ %s)", q.L.String(), q.R.String())
}

func (q *Diff) String() string {
	return fmt.Sprintf("(%s − %s)", q.L.String(), q.R.String())
}

// --- convenience constructors -------------------------------------------

// R constructs a relation occurrence of base with occurrence name.
// An empty name defaults to the base name.
func R(base, name string) *Relation {
	if name == "" {
		name = base
	}
	return &Relation{Name: name, Base: base}
}

// A constructs an attribute reference rel.name.
func A(rel, name string) Attr { return Attr{Rel: rel, Name: name} }

// Eq constructs the atom l = r.
func Eq(l, r Attr) Pred { return EqAttr{L: l, R: r} }

// EqC constructs the atom a = c.
func EqC(a Attr, c value.Value) Pred { return EqConst{A: a, C: c} }

// Sel wraps q in a selection; with no predicates it returns q unchanged.
func Sel(q Query, preds ...Pred) Query {
	if len(preds) == 0 {
		return q
	}
	return &Select{In: q, Preds: preds}
}

// Proj wraps q in a projection.
func Proj(q Query, attrs ...Attr) Query { return &Project{In: q, Attrs: attrs} }

// Prod folds qs into a left-deep Cartesian product.
func Prod(qs ...Query) Query {
	if len(qs) == 0 {
		panic("ra: Prod of zero queries")
	}
	out := qs[0]
	for _, q := range qs[1:] {
		out = &Product{L: out, R: q}
	}
	return out
}

// Join is selection over a product: σ_preds(l × r).
func Join(l, r Query, preds ...Pred) Query { return Sel(&Product{L: l, R: r}, preds...) }

// U constructs l ∪ r.
func U(l, r Query) Query { return &Union{L: l, R: r} }

// D constructs l − r.
func D(l, r Query) Query { return &Diff{L: l, R: r} }

// --- structural helpers ---------------------------------------------------

// Walk visits every node of the query tree in pre-order.
func Walk(q Query, fn func(Query)) {
	fn(q)
	for _, c := range q.Children() {
		Walk(c, fn)
	}
}

// Relations returns all relation occurrences in q, in left-to-right order.
func Relations(q Query) []*Relation {
	var out []*Relation
	Walk(q, func(n Query) {
		if r, ok := n.(*Relation); ok {
			out = append(out, r)
		}
	})
	return out
}

// Size returns |Q|: the number of operators, relation occurrences,
// predicates and projection attributes in the query.
func Size(q Query) int {
	n := 0
	Walk(q, func(node Query) {
		n++
		switch t := node.(type) {
		case *Select:
			n += len(t.Preds)
		case *Project:
			n += len(t.Attrs)
		}
	})
	return n
}

// OutAttrs computes the output attribute list of q under schema s.
// For Union/Diff the left operand's attributes name the output.
func OutAttrs(q Query, s Schema) ([]Attr, error) {
	switch t := q.(type) {
	case *Relation:
		names, err := s.Attrs(t.Base)
		if err != nil {
			return nil, err
		}
		out := make([]Attr, len(names))
		for i, n := range names {
			out[i] = Attr{Rel: t.Name, Name: n}
		}
		return out, nil
	case *Select:
		return OutAttrs(t.In, s)
	case *Project:
		return append([]Attr(nil), t.Attrs...), nil
	case *Product:
		l, err := OutAttrs(t.L, s)
		if err != nil {
			return nil, err
		}
		r, err := OutAttrs(t.R, s)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case *Union:
		return setOpAttrs(t.L, t.R, s, "∪")
	case *Diff:
		return setOpAttrs(t.L, t.R, s, "−")
	default:
		return nil, fmt.Errorf("ra: unknown query node %T", q)
	}
}

func setOpAttrs(l, r Query, s Schema, op string) ([]Attr, error) {
	la, err := OutAttrs(l, s)
	if err != nil {
		return nil, err
	}
	ra, err := OutAttrs(r, s)
	if err != nil {
		return nil, err
	}
	if len(la) != len(ra) {
		return nil, fmt.Errorf("ra: %s operands have arities %d and %d", op, len(la), len(ra))
	}
	return la, nil
}

// Validate checks q against schema s: every relation occurrence exists,
// occurrence names are unique (the normal form of Section 2), every
// referenced attribute is in scope, and set operands are union-compatible.
func Validate(q Query, s Schema) error {
	seen := map[string]bool{}
	for _, r := range Relations(q) {
		if _, ok := s[r.Base]; !ok {
			return fmt.Errorf("ra: unknown base relation %q", r.Base)
		}
		if seen[r.Name] {
			return fmt.Errorf("ra: duplicate relation occurrence %q (normalize first)", r.Name)
		}
		seen[r.Name] = true
	}
	return validateScopes(q, s)
}

func validateScopes(q Query, s Schema) error {
	for _, c := range q.Children() {
		if err := validateScopes(c, s); err != nil {
			return err
		}
	}
	switch t := q.(type) {
	case *Select:
		in, err := OutAttrs(t.In, s)
		if err != nil {
			return err
		}
		scope := attrSet(in)
		for _, p := range t.Preds {
			for _, a := range predAttrs(p) {
				if !scope[a] {
					return fmt.Errorf("ra: selection attribute %s not in scope", a)
				}
			}
		}
	case *Project:
		in, err := OutAttrs(t.In, s)
		if err != nil {
			return err
		}
		scope := attrSet(in)
		for _, a := range t.Attrs {
			if !scope[a] {
				return fmt.Errorf("ra: projection attribute %s not in scope", a)
			}
		}
	case *Union, *Diff:
		if _, err := OutAttrs(q, s); err != nil {
			return err
		}
	}
	return nil
}

func attrSet(attrs []Attr) map[Attr]bool {
	m := make(map[Attr]bool, len(attrs))
	for _, a := range attrs {
		m[a] = true
	}
	return m
}

func predAttrs(p Pred) []Attr {
	switch t := p.(type) {
	case EqAttr:
		return []Attr{t.L, t.R}
	case EqConst:
		return []Attr{t.A}
	default:
		return nil
	}
}

// Normalize returns a copy of q in which every relation occurrence has a
// distinct name (Lemma 1's renaming). Occurrences whose names are already
// unique are kept; clashes get suffixed fresh names, and attribute
// references inside the *scope of that occurrence's subtree* are rewritten
// consistently. Queries built with distinct occurrence names pass through
// unchanged.
func Normalize(q Query, s Schema) (Query, error) {
	counts := map[string]int{}
	out := normalize(q, counts)
	if err := Validate(out, s); err != nil {
		return nil, err
	}
	return out, nil
}

func normalize(q Query, counts map[string]int) Query {
	switch t := q.(type) {
	case *Relation:
		name := t.Name
		if name == "" {
			name = t.Base
		}
		counts[name]++
		if counts[name] > 1 {
			fresh := fmt.Sprintf("%s_%d", name, counts[name])
			// Fresh names may themselves collide with user-chosen names;
			// keep bumping until unique.
			for counts[fresh] > 0 {
				counts[name]++
				fresh = fmt.Sprintf("%s_%d", name, counts[name])
			}
			counts[fresh]++
			return &Relation{Name: fresh, Base: t.Base}
		}
		return &Relation{Name: name, Base: t.Base}
	case *Select:
		in := normalize(t.In, counts)
		preds := rewritePreds(t.Preds, renamingOf(t.In, in))
		return &Select{In: in, Preds: preds}
	case *Project:
		in := normalize(t.In, counts)
		ren := renamingOf(t.In, in)
		attrs := make([]Attr, len(t.Attrs))
		for i, a := range t.Attrs {
			attrs[i] = renameAttr(a, ren)
		}
		return &Project{In: in, Attrs: attrs}
	case *Product:
		l := normalize(t.L, counts)
		r := normalize(t.R, counts)
		return &Product{L: l, R: r}
	case *Union:
		return &Union{L: normalize(t.L, counts), R: normalize(t.R, counts)}
	case *Diff:
		return &Diff{L: normalize(t.L, counts), R: normalize(t.R, counts)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}

// renamingOf pairs the relation occurrences of the original subtree with the
// normalized subtree (same shape) and returns old-name → new-name.
func renamingOf(orig, norm Query) map[string]string {
	o := Relations(orig)
	n := Relations(norm)
	ren := make(map[string]string, len(o))
	for i := range o {
		oldName := o[i].Name
		if oldName == "" {
			oldName = o[i].Base
		}
		if oldName != n[i].Name {
			ren[oldName] = n[i].Name
		}
	}
	return ren
}

func renameAttr(a Attr, ren map[string]string) Attr {
	if nn, ok := ren[a.Rel]; ok {
		return Attr{Rel: nn, Name: a.Name}
	}
	return a
}

func rewritePreds(preds []Pred, ren map[string]string) []Pred {
	out := make([]Pred, len(preds))
	for i, p := range preds {
		switch t := p.(type) {
		case EqAttr:
			out[i] = EqAttr{L: renameAttr(t.L, ren), R: renameAttr(t.R, ren)}
		case EqConst:
			out[i] = EqConst{A: renameAttr(t.A, ren), C: t.C}
		default:
			out[i] = p
		}
	}
	return out
}

// Clone returns a deep copy of q.
func Clone(q Query) Query {
	switch t := q.(type) {
	case *Relation:
		cp := *t
		return &cp
	case *Select:
		return &Select{In: Clone(t.In), Preds: append([]Pred(nil), t.Preds...)}
	case *Project:
		return &Project{In: Clone(t.In), Attrs: append([]Attr(nil), t.Attrs...)}
	case *Product:
		return &Product{L: Clone(t.L), R: Clone(t.R)}
	case *Union:
		return &Union{L: Clone(t.L), R: Clone(t.R)}
	case *Diff:
		return &Diff{L: Clone(t.L), R: Clone(t.R)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}
