// Package access implements access schemas: sets of access constraints of
// the form R(X → Y, N) combining a cardinality bound with an index
// (Section 2). It provides actualization of constraints onto the relation
// occurrences of a normalized query (Lemma 1) and a textual format used by
// the tools.
package access

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ra"
)

// Constraint is an access constraint ψ = R(X → Y, N): for any X-value there
// are at most N distinct Y-values in any instance satisfying ψ, retrievable
// via an index on X. X may be empty (∅ → Y, N): at most N distinct Y values
// exist overall.
type Constraint struct {
	Rel string   // base relation (or occurrence name once actualized)
	X   []string // index attributes; may be empty
	Y   []string // fetched attributes
	N   int      // cardinality bound
}

// Key returns a canonical identity string for the constraint.
func (c Constraint) Key() string {
	return c.Rel + "(" + strings.Join(c.X, ",") + "->" + strings.Join(c.Y, ",") + ")"
}

// String renders the constraint in the paper's notation.
func (c Constraint) String() string {
	x := strings.Join(c.X, ",")
	if x == "" {
		x = "∅"
	}
	return fmt.Sprintf("%s(%s -> %s, %d)", c.Rel, x, strings.Join(c.Y, ","), c.N)
}

// Size returns the length |ψ| of the constraint: its attribute count plus one.
func (c Constraint) Size() int { return len(c.X) + len(c.Y) + 1 }

// IsIndexing reports whether c has the form R(X → X, 1), an indexing
// constraint of the elementary case of Section 6.
func (c Constraint) IsIndexing() bool {
	if c.N != 1 || len(c.X) != len(c.Y) {
		return false
	}
	xs := append([]string(nil), c.X...)
	ys := append([]string(nil), c.Y...)
	sort.Strings(xs)
	sort.Strings(ys)
	for i := range xs {
		if xs[i] != ys[i] {
			return false
		}
	}
	return true
}

// IsUnit reports whether |X| = |Y| = 1 (a unit constraint of Section 6).
func (c Constraint) IsUnit() bool { return len(c.X) == 1 && len(c.Y) == 1 }

// XAttrs returns X as attribute references on occurrence rel.
func (c Constraint) XAttrs(rel string) []ra.Attr {
	out := make([]ra.Attr, len(c.X))
	for i, x := range c.X {
		out[i] = ra.Attr{Rel: rel, Name: x}
	}
	return out
}

// YAttrs returns Y as attribute references on occurrence rel.
func (c Constraint) YAttrs(rel string) []ra.Attr {
	out := make([]ra.Attr, len(c.Y))
	for i, y := range c.Y {
		out[i] = ra.Attr{Rel: rel, Name: y}
	}
	return out
}

// Validate checks the constraint against a schema.
func (c Constraint) Validate(s ra.Schema) error {
	if _, ok := s[c.Rel]; !ok {
		return fmt.Errorf("access: constraint %s: unknown relation", c)
	}
	if c.N < 1 {
		return fmt.Errorf("access: constraint %s: N must be ≥ 1", c)
	}
	if len(c.Y) == 0 {
		return fmt.Errorf("access: constraint %s: empty Y", c)
	}
	for _, a := range c.X {
		if !s.HasAttr(c.Rel, a) {
			return fmt.Errorf("access: constraint %s: unknown attribute %s", c, a)
		}
	}
	for _, a := range c.Y {
		if !s.HasAttr(c.Rel, a) {
			return fmt.Errorf("access: constraint %s: unknown attribute %s", c, a)
		}
	}
	return nil
}

// Schema is an access schema A: a set of access constraints over a
// relational schema.
type Schema struct {
	Constraints []Constraint
}

// NewSchema builds an access schema, rejecting duplicates.
func NewSchema(cs ...Constraint) *Schema {
	s := &Schema{}
	seen := map[string]bool{}
	for _, c := range cs {
		if !seen[c.Key()] {
			seen[c.Key()] = true
			s.Constraints = append(s.Constraints, c)
		}
	}
	return s
}

// Validate checks every constraint against rs.
func (s *Schema) Validate(rs ra.Schema) error {
	for _, c := range s.Constraints {
		if err := c.Validate(rs); err != nil {
			return err
		}
	}
	return nil
}

// Len returns ‖A‖, the number of constraints.
func (s *Schema) Len() int { return len(s.Constraints) }

// Size returns |A|, the total length of the constraints.
func (s *Schema) Size() int {
	n := 0
	for _, c := range s.Constraints {
		n += c.Size()
	}
	return n
}

// ForRel returns the constraints on base (or occurrence) relation rel.
func (s *Schema) ForRel(rel string) []Constraint {
	var out []Constraint
	for _, c := range s.Constraints {
		if c.Rel == rel {
			out = append(out, c)
		}
	}
	return out
}

// Subset returns a new schema containing the constraints with the given
// keys, preserving order.
func (s *Schema) Subset(keys map[string]bool) *Schema {
	out := &Schema{}
	for _, c := range s.Constraints {
		if keys[c.Key()] {
			out.Constraints = append(out.Constraints, c)
		}
	}
	return out
}

// Without returns a new schema with the constraint identified by key removed.
func (s *Schema) Without(key string) *Schema {
	out := &Schema{Constraints: make([]Constraint, 0, len(s.Constraints))}
	for _, c := range s.Constraints {
		if c.Key() != key {
			out.Constraints = append(out.Constraints, c)
		}
	}
	return out
}

// SumN returns Σ_{ψ∈A} N_ψ, the objective of the access minimization
// problem of Section 6.
func (s *Schema) SumN() int {
	n := 0
	for _, c := range s.Constraints {
		n += c.N
	}
	return n
}

// String lists the constraints one per line.
func (s *Schema) String() string {
	lines := make([]string, len(s.Constraints))
	for i, c := range s.Constraints {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}

// Actualize computes the actualized access schema A' of A on normalized
// query q (Lemma 1): each constraint φ = R(X→Y,N) yields one actualized
// constraint S(X→Y,N) per occurrence S renaming R in q. The result maps
// occurrence names; Base tracks provenance back to A.
func (s *Schema) Actualize(q ra.Query) *Actualized {
	occs := ra.Relations(q)
	act := &Actualized{ByRel: make(map[string][]ActualConstraint, len(occs))}
	n := 0
	for _, occ := range occs {
		for _, c := range s.Constraints {
			if c.Rel == occ.Base {
				n++
			}
		}
	}
	if n > 0 {
		act.All = make([]ActualConstraint, 0, n)
	}
	for _, occ := range occs {
		start := len(act.All)
		for _, c := range s.Constraints {
			if c.Rel == occ.Base {
				act.All = append(act.All, ActualConstraint{
					Constraint: Constraint{Rel: occ.Name, X: c.X, Y: c.Y, N: c.N},
					Base:       c,
				})
			}
		}
		if len(act.All) > start {
			act.ByRel[occ.Name] = append(act.ByRel[occ.Name], act.All[start:]...)
		}
	}
	return act
}

// ActualConstraint is a constraint actualized on a relation occurrence,
// remembering the base constraint of A it came from.
type ActualConstraint struct {
	Constraint
	Base Constraint
}

// Actualized is the actualized access schema of A on a query.
type Actualized struct {
	All   []ActualConstraint
	ByRel map[string][]ActualConstraint
}

// Size returns |A'| of the actualized schema.
func (a *Actualized) Size() int {
	n := 0
	for _, c := range a.All {
		n += c.Constraint.Size()
	}
	return n
}

// Parse reads a constraint in the textual form "R(X -> Y, N)" where X and Y
// are comma-separated attribute lists and X may be empty or "∅".
func Parse(s string) (Constraint, error) {
	var c Constraint
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(s), ")") {
		return c, fmt.Errorf("access: malformed constraint %q", s)
	}
	c.Rel = strings.TrimSpace(s[:open])
	body := strings.TrimSpace(s)
	body = body[open+1 : len(body)-1]
	arrow := strings.Index(body, "->")
	if arrow < 0 {
		return c, fmt.Errorf("access: constraint %q lacks '->'", s)
	}
	comma := strings.LastIndexByte(body, ',')
	if comma < arrow {
		return c, fmt.Errorf("access: constraint %q lacks cardinality", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(body[comma+1:]))
	if err != nil {
		return c, fmt.Errorf("access: constraint %q: bad N: %v", s, err)
	}
	c.N = n
	c.X = splitAttrs(body[:arrow])
	c.Y = splitAttrs(body[arrow+2 : comma])
	if len(c.Y) == 0 {
		return c, fmt.Errorf("access: constraint %q has empty Y", s)
	}
	return c, nil
}

func splitAttrs(s string) []string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	s = strings.TrimSpace(s)
	if s == "" || s == "∅" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
