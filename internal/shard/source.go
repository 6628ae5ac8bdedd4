// Routed fetches: the exec.Source a covered residue query's bounded plan
// runs over at the router. The plan is the one a single engine would run
// (compiled once on the anchor and cached there); only where each fetch
// step reads its index buckets changes. A fetch on relation R goes
//
//   - to the ring owner of the bound key value, when R is partitioned and
//     its partition key is among the fetch's X attributes — that member
//     holds every R tuple with this X value;
//   - to the anchor, when R is broadcast — it commits every broadcast write
//     synchronously, so its copy is never behind;
//   - to every member otherwise, with each probe's rows unioned and
//     de-duplicated before exec counts them.
//
// exec charges a probe its distinct rows, or one access when it is empty,
// so a routed run's Stats.Accessed equals the single engine's: an owner's
// bucket is the global bucket, and the union over all members is the
// global bucket too, charged once when every member comes back empty.
// D ⊨ A holds globally, so a unioned bucket still has at most N rows.
//
// Mid-move reads need no protocol of their own. The source routes by the
// (ring, placement) snapshot Execute captured under the read fence, and
// invariant 1 of move.go keeps every member complete for what that
// snapshot places on it; surplus copies a move leaves on other members are
// either not read (owner routes) or dropped by the union (scatter routes).
package shard

import (
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/value"
)

// routedSource serves one plan execution's fetches from the members of
// one captured routing snapshot. Member batches run one after another on
// the calling goroutine, each under one store lock acquisition.
type routedSource struct {
	st *ringState
	ps *partState
}

// Fetch serves a fetch with no input batch (c.X empty, xvals nil) as a
// batch of one probe.
func (s routedSource) Fetch(c access.Constraint, xvals value.Tuple) ([]value.Tuple, error) {
	var out []value.Tuple
	err := s.FetchBatch(c, []value.Tuple{xvals}, func(_ int, rows []value.Tuple) {
		out = append(out, rows...)
	})
	return out, err
}

// FetchBatch routes the probes xs by the placement of c.Rel (see the file
// comment) and emits every probe's rows exactly once.
func (s routedSource) FetchBatch(c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error {
	members := s.st.members
	key, keyed := s.ps.keys[c.Rel]
	switch {
	case len(xs) == 0:
		return nil
	case !keyed, len(members) == 1:
		return fetchOn(members[0], c, xs, emit)
	}
	if kpos := slices.Index(c.X, key); kpos >= 0 {
		return s.fetchOwners(c, xs, kpos, emit)
	}
	return s.fetchAll(c, xs, emit)
}

// fetchOwners sends each probe to the ring owner of its partition-key
// value (position kpos of X): one member batch per owner.
func (s routedSource) fetchOwners(c access.Constraint, xs []value.Tuple, kpos int, emit func(i int, rows []value.Tuple)) error {
	owners := make([]int, len(xs))
	for i, x := range xs {
		if len(x) != len(c.X) {
			return fmt.Errorf("shard: fetch via %s expects %d X values, got %d", c, len(c.X), len(x))
		}
		owners[i] = s.st.ring.OwnerOf(x[kpos])
	}
	if !slices.ContainsFunc(owners, func(o int) bool { return o != owners[0] }) {
		return fetchOn(s.st.members[owners[0]], c, xs, emit)
	}
	var idx []int
	var sub []value.Tuple
	for o, m := range s.st.members {
		idx, sub = idx[:0], sub[:0]
		for i, owner := range owners {
			if owner == o {
				idx = append(idx, i)
				sub = append(sub, xs[i])
			}
		}
		if len(sub) == 0 {
			continue
		}
		err := fetchOn(m, c, sub, func(j int, rows []value.Tuple) { emit(idx[j], rows) })
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchAll probes every member with the whole batch and emits each
// probe's union. Each member's bucket is already distinct, so a row only
// needs checking against what earlier members contributed.
func (s routedSource) fetchAll(c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error {
	union := make([][]value.Tuple, len(xs))
	for _, m := range s.st.members {
		err := fetchOn(m, c, xs, func(i int, rows []value.Tuple) {
			prior := len(union[i])
			for _, t := range rows {
				if prior == 0 || !slices.ContainsFunc(union[i][:prior], t.Equal) {
					union[i] = append(union[i], t)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	for i, rows := range union {
		emit(i, rows)
	}
	return nil
}

// fetchOn runs one member batch, counting it in the member's queries.
func fetchOn(m *member, c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error {
	m.queries.Add(1)
	return m.eng.DB().FetchBatch(c, xs, emit)
}
