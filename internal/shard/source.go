// Routed reads: the exec.Source a residue query runs over at the router.
// A covered query runs the bounded plan a single engine would run
// (compiled once on the anchor and cached there), an uncovered one the
// baseline; only where each fetch or scan reads its rows changes. A fetch
// on relation R goes
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
// A scan of R reads the anchor's copy when R is broadcast. When R is
// partitioned it reads every member and keeps from member i only the rows
// the captured ring places on i. Invariant 1 of move.go makes every member
// complete for what the (ring, placement) snapshot places on it, so the
// kept rows are all of R, each exactly once: a move's surplus copies fail
// the owner test and are dropped without comparing tuples, and Scanned
// equals the single engine's.
//
// Mid-move reads need no protocol of their own. The source routes by the
// snapshot Execute captured under the read fence; surplus copies a move
// leaves on other members are either not read (owner routes), dropped by
// the union (fetches on every member) or dropped by the owner filter
// (scans).
package shard

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/value"
)

// routedSource serves one residue execution's fetches and scans from the
// members of one captured routing snapshot. Member reads run one after
// another on the calling goroutine, each under one store lock
// acquisition. shipped accumulates the encoded size of the rows scans
// return to the router (ResidueStats.BytesShipped).
type routedSource struct {
	st      *ringState
	ps      *partState
	shipped *atomic.Int64
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

// Scan returns every tuple of rel once: the anchor's copy when rel is
// broadcast, otherwise each member's rows that the captured ring places on
// that member (see the file comment).
func (s routedSource) Scan(rel string) ([]value.Tuple, error) {
	members := s.st.members
	pos, keyed := s.ps.keyPos[rel]
	if !keyed {
		members = members[:1]
	}
	var out []value.Tuple
	for i, m := range members {
		m.queries.Add(1)
		_, err := m.eng.DB().ScanFunc(rel, func(t value.Tuple) bool {
			if !keyed || s.st.ring.OwnerOf(t[pos]) == i {
				out = append(out, t)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	s.ship(out)
	return out, nil
}

// ship adds the encoded size of rows to the shipped-bytes counter.
func (s routedSource) ship(rows []value.Tuple) {
	var buf []byte
	n := 0
	for _, t := range rows {
		buf = buf[:0]
		for _, v := range t {
			buf = value.AppendKey(buf, v)
		}
		n += len(buf)
	}
	s.shipped.Add(int64(n))
}

// fetchOn runs one member batch, counting it in the member's queries.
func fetchOn(m *member, c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error {
	m.queries.Add(1)
	return m.eng.DB().FetchBatch(c, xs, emit)
}
