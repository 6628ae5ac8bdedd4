// Package discovery mines access constraints from data (Section 7, C1):
// a TANE-style search over candidate attribute sets X and targets Y using
// group-by counting on (samples of) relation instances, keeping
// R(X → Y, N) whenever the observed fan-out N is within a threshold.
// Discovered constraints hold on the sampled instance by construction.
// Nothing keeps them true afterwards: a later write that grows a bucket
// past N is not detected unless store.DB.Satisfies is asked.
package discovery

import (
	"sort"

	"repro/internal/access"
	"repro/internal/store"
	"repro/internal/value"
)

// Options controls the search.
type Options struct {
	// MaxN keeps only constraints with observed fan-out ≤ MaxN.
	MaxN int
	// MaxX bounds |X| (1 or 2 are typical; 0 also mines ∅ → Y domain
	// constraints such as R(∅ → month, 12)).
	MaxX int
	// MineEmptyX additionally mines ∅ → Y constraints when the whole
	// column has at most MaxN distinct values.
	MineEmptyX bool
	// SampleLimit caps the rows examined per relation (0 = all).
	SampleLimit int
	// Slack multiplies the observed fan-out before storing N, leaving
	// headroom for future inserts (1.0 = exact).
	Slack float64
	// PruneDominated drops X → Y when some X' ⊂ X already yields a
	// constraint on Y (TANE's minimality pruning).
	PruneDominated bool
}

// DefaultOptions mirrors the paper's setting: small fan-outs, X of size ≤ 2.
func DefaultOptions() Options {
	return Options{MaxN: 64, MaxX: 2, MineEmptyX: true, Slack: 1.0, PruneDominated: true}
}

// Discover mines an access schema from the current instance of db.
func Discover(db *store.DB, opts Options) (*access.Schema, error) {
	if opts.MaxN <= 0 {
		opts.MaxN = 64
	}
	if opts.Slack < 1.0 {
		opts.Slack = 1.0
	}
	var found []access.Constraint
	for _, relName := range db.Schema.Relations() {
		cs, err := discoverRel(db, relName, opts)
		if err != nil {
			return nil, err
		}
		found = append(found, cs...)
	}
	return access.NewSchema(found...), nil
}

func discoverRel(db *store.DB, relName string, opts Options) ([]access.Constraint, error) {
	rel, err := db.Rel(relName)
	if err != nil {
		return nil, err
	}
	rows, err := db.Rows(relName)
	if err != nil {
		return nil, err
	}
	if opts.SampleLimit > 0 && len(rows) > opts.SampleLimit {
		rows = rows[:opts.SampleLimit]
	}
	attrs := rel.Attrs
	var out []access.Constraint
	// covered[y] records the (X, N) pairs already yielding a constraint on
	// y, for dominance pruning.
	type prior struct {
		xpos []int
		n    int
	}
	covered := map[string][]prior{}

	addIfBounded := func(xpos []int, ypos int) {
		y := attrs[ypos]
		fan := maxFanOut(rows, xpos, ypos)
		if fan == 0 || fan > opts.MaxN {
			return
		}
		n := int(float64(fan) * opts.Slack)
		if n < fan {
			n = fan
		}
		if opts.PruneDominated {
			// A superset X with no tighter bound adds nothing: some X' ⊆ X
			// already fetches y at cost ≤ n.
			for _, prev := range covered[y] {
				if subset(prev.xpos, xpos) && prev.n <= n {
					return
				}
			}
		}
		x := make([]string, len(xpos))
		for i, p := range xpos {
			x[i] = attrs[p]
		}
		out = append(out, access.Constraint{Rel: relName, X: x, Y: []string{y}, N: n})
		covered[y] = append(covered[y], prior{xpos: xpos, n: n})
	}

	// Level 0: domain constraints ∅ → Y.
	if opts.MineEmptyX {
		for y := range attrs {
			addIfBounded(nil, y)
		}
	}
	// Level 1: single-attribute X.
	if opts.MaxX >= 1 {
		for x := range attrs {
			for y := range attrs {
				if y == x {
					continue
				}
				addIfBounded([]int{x}, y)
			}
		}
	}
	// Level 2: attribute pairs.
	if opts.MaxX >= 2 {
		for x1 := 0; x1 < len(attrs); x1++ {
			for x2 := x1 + 1; x2 < len(attrs); x2++ {
				for y := range attrs {
					if y == x1 || y == x2 {
						continue
					}
					addIfBounded([]int{x1, x2}, y)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// maxFanOut computes max_x |{distinct y : (x,y) ∈ rows}| by group-by
// counting. xpos may be empty (global distinct count).
func maxFanOut(rows []value.Tuple, xpos []int, ypos int) int {
	groups := map[string]map[value.Value]bool{}
	for _, t := range rows {
		k := value.KeyOf(t, xpos)
		g := groups[k]
		if g == nil {
			g = map[value.Value]bool{}
			groups[k] = g
		}
		g[t[ypos]] = true
	}
	maxN := 0
	for _, g := range groups {
		if len(g) > maxN {
			maxN = len(g)
		}
	}
	return maxN
}

func subset(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

// MembershipConstraints builds indexing constraints R(X → X, 1) for the
// given attribute sets — membership-check indices like ψ3 of Example 1,
// which group-by mining cannot produce (they are trivially satisfied).
func MembershipConstraints(rel string, xs [][]string) []access.Constraint {
	out := make([]access.Constraint, 0, len(xs))
	for _, x := range xs {
		out = append(out, access.Constraint{Rel: rel, X: x, Y: x, N: 1})
	}
	return out
}
