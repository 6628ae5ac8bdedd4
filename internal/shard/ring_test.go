package shard

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/value"
)

// ringKeys synthesizes n distinct partition-key values shaped like the
// workloads' keys (small dense integers).
func ringKeys(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewInt(int64(i))
	}
	return out
}

// TestRingDistribution is the load-balance property test: hashing a dense
// keyed-row population onto the ring must land within ±15% of uniform on
// every shard at N ∈ {2, 4, 8}.
func TestRingDistribution(t *testing.T) {
	const keys = 40000
	vals := ringKeys(keys)
	for _, n := range []int{2, 4, 8} {
		ring := NewRing(n, DefaultVnodes)
		counts := make([]int, n)
		for _, v := range vals {
			counts[ring.OwnerOf(v)]++
		}
		uniform := float64(keys) / float64(n)
		for s, c := range counts {
			dev := (float64(c) - uniform) / uniform
			if dev < -0.15 || dev > 0.15 {
				t.Errorf("N=%d shard %d holds %d keys, %.1f%% off uniform (limit ±15%%); counts=%v",
					n, s, c, 100*dev, counts)
			}
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing law the rebalancer's
// cost model rests on: growing N → N+1 must move at most ~1/(N+1)+ε of the
// keyed rows, and every key that does move must move TO the new shard —
// growth never shuffles keys between surviving shards.
func TestRingMinimalMovement(t *testing.T) {
	const keys = 40000
	const eps = 0.05
	vals := ringKeys(keys)
	for n := 2; n <= 8; n++ {
		before := NewRing(n, DefaultVnodes)
		after := NewRing(n+1, DefaultVnodes)
		moved := 0
		for _, v := range vals {
			a, b := before.OwnerOf(v), after.OwnerOf(v)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("N=%d→%d: key %v moved %d→%d, not to the new shard", n, n+1, v, a, b)
			}
		}
		frac := float64(moved) / float64(keys)
		if limit := 1.0/float64(n+1) + eps; frac > limit {
			t.Errorf("N=%d→%d moved %.3f of keys, want <= %.3f", n, n+1, frac, limit)
		}
		if moved == 0 {
			t.Errorf("N=%d→%d moved nothing; new shard owns no keys", n, n+1)
		}
	}
}

// TestRingDeterminism asserts two rings built with the same parameters
// agree on every owner — placement must be a pure function of (N, vnodes),
// or routers rebuilt from a spec would disagree with their own data.
func TestRingDeterminism(t *testing.T) {
	a, b := NewRing(5, 64), NewRing(5, 64)
	for _, v := range ringKeys(2000) {
		if a.OwnerOf(v) != b.OwnerOf(v) {
			t.Fatalf("rings disagree on %v", v)
		}
	}
	if a.Shards() != 5 || a.Vnodes() != 64 {
		t.Fatalf("ring reports Shards=%d Vnodes=%d", a.Shards(), a.Vnodes())
	}
}

// TestOwnerOfMatchesStringHash pins placement across the allocation-free
// hash: the ring's virtual nodes, OwnerOf and stripeOf must agree bit for
// bit with the string-keyed formulas they replaced — FNV-1a over
// Tuple.Key(), fmt.Sprintf vnode names and rel+"\x00"+Tuple.Key() stripes
// — or rows placed before a restart would be looked for on the wrong
// shard.
func TestOwnerOfMatchesStringHash(t *testing.T) {
	fnvString := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	vals := ringKeys(2000)
	for _, s := range []string{"", "a", "nyc", "O'Hare", "δ-shard", strings.Repeat("long key ", 12)} {
		vals = append(vals, value.NewStr(s))
	}
	vals = append(vals, value.NewInt(-1), value.NewInt(1<<62))
	for _, n := range []int{1, 2, 4, 7} {
		ring := NewRing(n, 64)
		legacy := map[uint64]int{}
		for s := 0; s < n; s++ {
			for v := 0; v < 64; v++ {
				legacy[mix64(fnvString(fmt.Sprintf("shard/%d/vnode/%d", s, v)))] = s
			}
		}
		if len(ring.points) != len(legacy) {
			t.Fatalf("N=%d: %d ring points, %d string-hashed vnodes", n, len(ring.points), len(legacy))
		}
		for _, p := range ring.points {
			if s, ok := legacy[p.h]; !ok || s != p.shard {
				t.Fatalf("N=%d: ring point %x (shard %d) is not a string-hashed vnode of its shard", n, p.h, p.shard)
			}
		}
		for _, v := range vals {
			want := ring.Owner(mix64(fnvString(value.Tuple{v}.Key())))
			if got := ring.OwnerOf(v); got != want {
				t.Fatalf("N=%d: OwnerOf(%v) = %d, string formula = %d", n, v, got, want)
			}
		}
	}
	for i, v := range vals {
		tup := value.Tuple{v, value.NewInt(int64(i)), value.NewStr("x")}
		for _, rel := range []string{"ontime", "carrier"} {
			want := fnvString(rel+"\x00"+tup.Key()) % wstripes
			if got := stripeOf(rel, tup); got != want {
				t.Fatalf("stripeOf(%s, %v) = %d, string formula = %d", rel, tup, got, want)
			}
		}
	}
}
