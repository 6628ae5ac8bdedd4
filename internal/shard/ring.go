// Consistent-hash ring: the placement function behind the router. Tuples
// of a partitioned relation land on the shard that owns the hash of their
// partition-key value, where ownership is decided by a ring of virtual
// nodes rather than hash(key) % N. The payoff is the minimal-movement law:
// growing the cluster from N to N+1 shards only inserts the new shard's
// virtual nodes into the ring, so only the keys falling into the stolen
// arcs change owner — about 1/(N+1) of them — and shrinking removes one
// shard's nodes, moving only the keys that shard owned. Everything else
// stays put, which is what makes online resharding (move.go) a
// bounded stream instead of a full reshuffle.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// DefaultVnodes is the number of virtual nodes each shard contributes to
// a Ring when Spec.Vnodes is zero. More virtual nodes flatten the keyed-row
// distribution (the property test pins ±15% of uniform) at the cost of a
// larger ring to search; 512 per shard keeps worst-case skew under ~10%
// while staying well inside the bound.
const DefaultVnodes = 512

// mix64 is the 64-bit avalanche finalizer (MurmurHash3 fmix64). FNV-1a
// alone clusters badly on the short, similar strings that name virtual
// nodes and encode small integer keys; finalizing spreads both uniformly
// around the circle, which the ±15% distribution bound depends on.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard that owns the arc ending at it.
type ringPoint struct {
	h     uint64
	shard int
}

// Ring is an immutable consistent-hash ring over shard indices 0..N-1.
// Build one with NewRing; share it freely — all methods are read-only, so
// a Ring is safe for concurrent use.
//
// Rings are deterministic: NewRing(n, v) always produces the same point
// set, and the point set of NewRing(n+1, v) is a superset of NewRing(n, v),
// which is exactly the property the rebalancer's move plans rely on.
type Ring struct {
	n      int
	vnodes int
	points []ringPoint
}

// NewRing builds the ring for n shards with vnodes virtual nodes per shard
// (vnodes <= 0 means DefaultVnodes). n must be >= 1.
func NewRing(n, vnodes int) *Ring {
	if n < 1 {
		panic(fmt.Sprintf("shard: NewRing with %d shards", n))
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{n: n, vnodes: vnodes, points: make([]ringPoint, 0, n*vnodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				h:     mix64(hashKey(fmt.Sprintf("shard/%d/vnode/%d", s, v))),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Colliding points order by shard so every ring with the same
		// membership resolves the tie identically.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the number of shards the ring places keys on.
func (r *Ring) Shards() int { return r.n }

// Vnodes returns the virtual nodes contributed per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Owner returns the shard owning hash position h: the shard of the first
// virtual node at or clockwise of h, wrapping at the top of the circle.
func (r *Ring) Owner(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// OwnerOf returns the shard owning partition-key value v. The same value
// owns the same shard regardless of which relation carries it, so
// co-partitioned joins stay shard-local.
func (r *Ring) OwnerOf(v value.Value) int {
	return r.Owner(mix64(hashKey(value.Tuple{v}.Key())))
}
