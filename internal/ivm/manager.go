package ivm

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// Config tunes admission and eviction of materialized answers.
type Config struct {
	// Budget is the maximum number of live views; <= 0 disables
	// materialization entirely.
	Budget int
	// MinHits is the minimum plan-cache repeat count before a fingerprint
	// is considered for materialization.
	MinHits int64
	// MinScore is the admission threshold on hits × measured execution
	// cost (tuples accessed per run): a query must be both repeated and
	// expensive to earn a view.
	MinScore float64
	// MaxViewRows caps the total counted rows a single view may hold
	// across all of its node tables (<= 0 = unlimited). Queries whose
	// materialization would exceed it are denied and keep re-executing.
	MaxViewRows int
}

// DefaultConfig is the admission policy engines start with: up to 64
// views, admitted after 3 repeats once hits × cost passes 32, each capped
// at 256k counted rows.
func DefaultConfig() Config {
	return Config{Budget: 64, MinHits: 3, MinScore: 32, MaxViewRows: 1 << 18}
}

// Enabled reports whether the config admits any materialization.
func (c Config) Enabled() bool { return c.Budget > 0 }

// Stats is a snapshot of the materialization counters.
type Stats struct {
	// Materialized is the number of live views right now; Budget the
	// configured ceiling.
	Materialized int
	Budget       int
	// Admitted / Evicted / Purged count view lifecycle events: admissions,
	// budget-pressure evictions, and invalidation purges (version bumps,
	// reshard, repartition).
	Admitted, Evicted, Purged int64
	// Hits counts reads served from a materialized answer; DeltaApplies
	// counts tuple writes folded into a view.
	Hits, DeltaApplies int64
	// Fallbacks counts views dropped because a delta could not be applied
	// (the reader falls back to plan execution); Denied counts
	// materialization attempts rejected at build time (too large, or an
	// unsupported shape).
	Fallbacks, Denied int64
	// SeedFetched / SeedScanned count the tuples view construction read
	// through index buckets (bounded by the access constraints) and through
	// relation scans (bounded only by the relation); BuildNanos is the total
	// time constructions held the materialization fence, i.e. stalled
	// writers.
	SeedFetched, SeedScanned, BuildNanos int64
}

// Merge returns the element-wise sum of two snapshots, for cluster-wide
// aggregation across shard engines.
func (s Stats) Merge(o Stats) Stats {
	s.Materialized += o.Materialized
	s.Budget += o.Budget
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	s.Purged += o.Purged
	s.Hits += o.Hits
	s.DeltaApplies += o.DeltaApplies
	s.Fallbacks += o.Fallbacks
	s.Denied += o.Denied
	s.SeedFetched += o.SeedFetched
	s.SeedScanned += o.SeedScanned
	s.BuildNanos += o.BuildNanos
	return s
}

// entry is one live view keyed by its serving key.
type entry struct {
	key  string
	view *View
	// info is an opaque compile artifact the owning engine stored at
	// admission, returned verbatim on every Serve so the engine can fill
	// its execution report without recompiling.
	info any
	// hits is the benefit counter (serves since admission); last is the
	// manager-clock timestamp of the most recent serve. Eviction takes the
	// minimum (hits, last): lowest benefit first, least recently used on
	// ties.
	hits atomic.Int64
	last atomic.Int64
}

// maxDenied bounds the negative-admission cache so a hostile query stream
// cannot grow it without bound.
const maxDenied = 4096

// Manager owns the live views of one engine: admission scoring, the view
// budget, benefit-based eviction, per-relation write routing and the
// lifecycle counters. All methods are safe for concurrent use; the
// ordering contract for OnWrite is inherited from View.Apply.
type Manager struct {
	cfg   Config
	clock atomic.Int64

	hits, admitted, evicted, purged      atomic.Int64
	deltaApplies, fallbacks, denied      atomic.Int64
	seedFetched, seedScanned, buildNanos atomic.Int64

	mu    sync.RWMutex
	views map[string]*entry
	deny  map[string]bool
	// byRel routes writes: base relation → the views that depend on it. The
	// map and its slices are immutable once published and replaced wholesale
	// (under mu) whenever the view set changes, so the write path reads the
	// route with one pointer load, no lock and no allocation.
	byRel atomic.Pointer[map[string][]*entry]
}

// NewManager creates an empty manager with the given policy.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:   cfg,
		views: map[string]*entry{},
		deny:  map[string]bool{},
	}
	m.byRel.Store(&map[string][]*entry{})
	return m
}

// Config returns the admission policy the manager was built with.
func (m *Manager) Config() Config { return m.cfg }

// Len returns the number of live views.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.views)
}

// Tracks reports whether any live view depends on base relation rel —
// the fast pre-check on the write path.
func (m *Manager) Tracks(rel string) bool {
	return len((*m.byRel.Load())[rel]) > 0
}

// Serve returns the published answer of the view under key, the opaque
// admission info, and whether a view was live. The returned table is
// shared and read-only.
func (m *Manager) Serve(key string) (*exec.Table, any, bool) {
	m.mu.RLock()
	e := m.views[key]
	m.mu.RUnlock()
	if e == nil {
		return nil, nil, false
	}
	t := e.view.Published()
	if t == nil {
		return nil, nil, false
	}
	e.hits.Add(1)
	e.last.Store(m.clock.Add(1))
	m.hits.Add(1)
	return t, e.info, true
}

// Has reports whether a view is live under key.
func (m *Manager) Has(key string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.views[key] != nil
}

// ShouldAdmit applies the admission formula: the key has no live view and
// was not previously denied, the repeat count passed MinHits, and
// hits × cost passed MinScore.
func (m *Manager) ShouldAdmit(key string, hits int64, cost float64) bool {
	if !m.cfg.Enabled() {
		return false
	}
	m.mu.RLock()
	_, live := m.views[key]
	denied := m.deny[key]
	m.mu.RUnlock()
	if live || denied {
		return false
	}
	return hits >= m.cfg.MinHits && float64(hits)*cost >= m.cfg.MinScore
}

// Denied reports whether key was rejected at a previous build attempt.
func (m *Manager) Denied(key string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.deny[key]
}

// Deny records a failed materialization so the engine stops re-attempting
// the build on every execution. The negative cache is dropped on PurgeAll.
func (m *Manager) Deny(key string) {
	m.denied.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.deny) < maxDenied {
		m.deny[key] = true
	}
}

// Admit installs a view under key, evicting lowest-benefit views while the
// budget is exceeded. info is returned verbatim by Serve. Admitting a key
// that is already live is a no-op.
func (m *Manager) Admit(key string, v *View, info any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.views[key] != nil {
		return
	}
	for len(m.views) >= m.cfg.Budget {
		m.evictLocked()
	}
	e := &entry{key: key, view: v, info: info}
	e.last.Store(m.clock.Add(1))
	m.views[key] = e
	m.rerouteLocked(e, true)
	m.admitted.Add(1)
}

// Install seeds the built view v from db and admits it under key, or
// records the denial when seeding fails (too large). It is the part of a
// materialization that must run with writers excluded — the caller holds
// the engine's fence exclusively around it — and it accounts what that
// exclusion cost: tuples read, and time held.
func (m *Manager) Install(key string, v *View, db *store.DB, info any) error {
	start := time.Now()
	err := v.Seed(db)
	if err != nil {
		m.Deny(key)
	} else {
		m.Admit(key, v, info)
	}
	m.seedFetched.Add(v.seedFetched)
	m.seedScanned.Add(v.seedScanned)
	m.buildNanos.Add(int64(time.Since(start)))
	return err
}

// rerouteLocked publishes a new write route with e added to, or removed
// from, the relations its view depends on. Called with m.mu held
// exclusively.
func (m *Manager) rerouteLocked(e *entry, add bool) {
	old := *m.byRel.Load()
	next := make(map[string][]*entry, len(old)+1)
	for rel, es := range old {
		next[rel] = es
	}
	for _, rel := range e.view.BaseRels() {
		es := make([]*entry, 0, len(old[rel])+1)
		for _, o := range old[rel] {
			if o != e {
				es = append(es, o)
			}
		}
		if add {
			es = append(es, e)
		}
		if len(es) == 0 {
			delete(next, rel)
		} else {
			next[rel] = es
		}
	}
	m.byRel.Store(&next)
}

// evictLocked removes the lowest-benefit view: minimum serve count, least
// recently served on ties. Called with m.mu held exclusively.
func (m *Manager) evictLocked() {
	var victim *entry
	for _, e := range m.views {
		if victim == nil {
			victim = e
			continue
		}
		eh, vh := e.hits.Load(), victim.hits.Load()
		if eh < vh || (eh == vh && e.last.Load() < victim.last.Load()) {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	m.removeLocked(victim)
	m.evicted.Add(1)
}

// removeLocked unregisters an entry from the key map and the write route.
func (m *Manager) removeLocked(e *entry) {
	delete(m.views, e.key)
	m.rerouteLocked(e, false)
}

// OnWrite folds already-applied store writes into every view that depends
// on their relations, in op order. A view whose delta application fails is
// dropped (counted as a fallback): subsequent reads of its key re-execute
// the plan and may re-admit a fresh view later.
func (m *Manager) OnWrite(ops []store.TupleOp) {
	var dead []*entry
	for _, op := range ops {
		for _, e := range (*m.byRel.Load())[op.Rel] {
			if err := e.view.Apply(op); err != nil {
				dead = append(dead, e)
				continue
			}
			m.deltaApplies.Add(1)
		}
	}
	if len(dead) > 0 {
		m.mu.Lock()
		for _, e := range dead {
			if m.views[e.key] == e {
				m.removeLocked(e)
				m.fallbacks.Add(1)
			}
		}
		m.mu.Unlock()
	}
}

// PurgeAll drops every live view and the negative-admission cache — the
// invalidation hammer for access-schema generation bumps, reshard and
// repartition.
func (m *Manager) PurgeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purged.Add(int64(len(m.views)))
	m.views = map[string]*entry{}
	m.byRel.Store(&map[string][]*entry{})
	m.deny = map[string]bool{}
}

// Stats returns a snapshot of the materialization counters.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	live := len(m.views)
	m.mu.RUnlock()
	return Stats{
		Materialized: live,
		Budget:       m.cfg.Budget,
		Admitted:     m.admitted.Load(),
		Evicted:      m.evicted.Load(),
		Purged:       m.purged.Load(),
		Hits:         m.hits.Load(),
		DeltaApplies: m.deltaApplies.Load(),
		Fallbacks:    m.fallbacks.Load(),
		Denied:       m.denied.Load(),
		SeedFetched:  m.seedFetched.Load(),
		SeedScanned:  m.seedScanned.Load(),
		BuildNanos:   m.buildNanos.Load(),
	}
}
