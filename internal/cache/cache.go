// Package cache provides a sharded, size-bounded LRU cache used as the
// engine's plan cache: compiled query artifacts (coverage verdict, covered
// rewrite, minimized access schema, bounded plan) are stored under a
// canonical fingerprint of the query so repeated Execute calls skip the
// PTIME analysis pipeline and go straight to plan execution.
//
// The cache is safe for concurrent use. Keys are any comparable type
// hashed by a caller-supplied function (the engine keys plans by the
// query's canonical ra.Key); New builds the string-keyed form. Values are
// opaque. Each shard holds its own mutex, hash map and intrusive
// LRU list, so concurrent readers on different shards never contend.
// Eviction is per-shard LRU with a global capacity divided evenly across
// shards.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of cache effectiveness counters, in the JSON form
// GET /stats serves.
type Stats struct {
	Hits      int64 `json:"hits"`      // Get found a live entry
	Misses    int64 `json:"misses"`    // Get found nothing
	Evictions int64 `json:"evictions"` // entries displaced by capacity pressure
	Purges    int64 `json:"purges"`    // entries dropped by Purge (invalidation)
	Entries   int   `json:"entries"`   // live entries right now
	// HitRate is Hits / (Hits + Misses), or 0 when no lookups happened.
	HitRate float64 `json:"hitRate"`
}

// withHitRate returns s with HitRate derived from its counters.
func (s Stats) withHitRate() Stats {
	s.HitRate = 0
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Merge returns the element-wise sum of two snapshots, for cluster-wide
// aggregation across shard engines; HitRate is re-derived from the sums.
func (s Stats) Merge(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Purges += o.Purges
	s.Entries += o.Entries
	return s.withHitRate()
}

// Cache is a sharded LRU cache with a fixed total capacity.
type Cache[K comparable] struct {
	shards []shard[K]
	mask   uint64
	hash   func(K) uint64

	hits, misses, evictions, purges atomic.Int64
}

type shard[K comparable] struct {
	mu  sync.Mutex
	m   map[K]*entry[K]
	cap int
	// Intrusive doubly-linked LRU list; head.next is most recent,
	// head.prev least recent.
	head entry[K]
}

type entry[K comparable] struct {
	key        K
	val        any
	hits       int64 // lifetime Get count, read/written under the shard lock
	prev, next *entry[K]
}

// New creates a string-keyed cache holding at most capacity entries spread
// over the given number of shards, keys hashed with a per-cache maphash
// seed. The shard count is rounded up to a power of two; capacity below
// the shard count is raised so every shard holds at least one entry.
// New(0, n) or New(n, 0) panic.
func New(capacity, shards int) *Cache[string] {
	seed := maphash.MakeSeed()
	return NewHashed(capacity, shards, func(k string) uint64 { return maphash.String(seed, k) })
}

// NewHashed is New for any comparable key type: hash picks a key's shard
// from its low bits, so it must spread keys evenly (a cryptographic
// digest's leading bytes do).
func NewHashed[K comparable](capacity, shards int, hash func(K) uint64) *Cache[K] {
	if capacity <= 0 || shards <= 0 {
		panic("cache: capacity and shards must be positive")
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache[K]{shards: make([]shard[K], n), mask: uint64(n - 1), hash: hash}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[K]*entry[K])
		s.cap = perShard
		s.head.next = &s.head
		s.head.prev = &s.head
	}
	return c
}

func (c *Cache[K]) shardFor(key K) *shard[K] {
	return &c.shards[c.hash(key)&c.mask]
}

// Get returns the value cached under key and whether it was present,
// promoting the entry to most recently used.
func (c *Cache[K]) Get(key K) (any, bool) {
	v, _, ok := c.GetTouch(key)
	return v, ok
}

// GetTouch is Get plus the entry's lifetime hit count after this lookup
// (0 on a miss). The count is the repeat-frequency signal the engine's
// materialization admission weighs against execution cost; it survives
// promotions and value refreshes and dies with the entry on eviction or
// purge.
func (c *Cache[K]) GetTouch(key K) (any, int64, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[key]
	var (
		val any
		n   int64
	)
	if ok {
		// Copy the value inside the critical section: a concurrent Put on
		// the same key rewrites e.val under the lock, and reading it after
		// unlock would race. The global counters are bumped here too, so a
		// quiescent Stats read agrees exactly with the lookups performed —
		// updating them after unlock let a concurrent snapshot observe the
		// promotion without the hit.
		val = e.val
		e.hits++
		n = e.hits
		s.unlink(e)
		s.pushFront(e)
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	return val, n, true
}

// Put stores val under key, evicting the least recently used entry of the
// key's shard when the shard is full. Storing an existing key refreshes its
// value and recency.
func (c *Cache[K]) Put(key K, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		lru := s.head.prev
		s.unlink(lru)
		delete(s.m, lru.key)
		c.evictions.Add(1)
	}
	e := &entry[K]{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
	s.mu.Unlock()
}

// Purge drops every entry, counting them as purges (not evictions). It is
// the invalidation hammer for events that outdate all plans at once.
func (c *Cache[K]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.purges.Add(int64(len(s.m)))
		s.m = make(map[K]*entry[K])
		s.head.next = &s.head
		s.head.prev = &s.head
		s.mu.Unlock()
	}
}

// Len returns the number of live entries.
func (c *Cache[K]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache[K]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Purges:    c.purges.Load(),
		Entries:   c.Len(),
	}.withHitRate()
}

func (s *shard[K]) unlink(e *entry[K]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard[K]) pushFront(e *entry[K]) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}
