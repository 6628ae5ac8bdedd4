// Package core wires the paper's components into the bounded-evaluation
// framework of Section 7 (Fig. 4): offline constraint discovery and index
// building (C1), coverage checking (C2), access minimization (C3), bounded
// plan generation (C4), SQL translation (C5) and execution (C6), with a
// conventional fallback for queries that are not covered.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/discovery"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/ra"
	"repro/internal/rewrite"
	"repro/internal/sqlgen"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// DefaultPlanCacheSize is the capacity (entries) of the plan cache built by
// NewEngine, and DefaultPlanCacheShards its shard count.
const (
	DefaultPlanCacheSize   = 512
	DefaultPlanCacheShards = 16
)

// Engine is a bounded-evaluation engine bound to a relational schema, an
// access schema with built indices, and a database instance.
//
// An Engine is safe for concurrent use. Executions share the engine under
// a read lock, so any number run in parallel; access-schema mutations
// (AddConstraints, RemoveConstraint) take the write lock, which both
// serializes them against in-flight executions and lets them invalidate
// the plan cache atomically. Tuple-level writes (Insert, Delete,
// ApplyBatch — one path, write) never take that lock: by Proposition 12
// the indices I_A are maintained incrementally under insertions and
// deletions, so every cached plan stays valid and queries keep running
// concurrently with data churn.
type Engine struct {
	schema ra.Schema
	acc    *access.Schema
	db     *store.DB

	// mu guards acc and the index topology against Execute. Executions
	// hold it shared for their full duration, so a schema change never
	// lands mid-plan.
	mu sync.RWMutex
	// version counts access-schema / index generations; it is folded into
	// every plan-cache key, so entries compiled against a dropped or
	// rebuilt index can never be served again.
	version atomic.Uint64
	// plans caches compiled queries by planKey: canonical query key,
	// option shape and version. nil disables caching (the zero Engine
	// still works).
	plans *cache.Cache[planKey]

	// views maintains materialized answers for hot fingerprints (nil
	// disables IVM; see SetIVMConfig). The pointer is atomic so the write
	// path can consult it without taking a lock when no views exist.
	views atomic.Pointer[ivm.Manager]
	// ivmMu fences materialization against tuple writes: write holds it
	// shared across [store apply + delta dispatch], and a new view holds it
	// exclusively across [seeding read + registration] — its compilation
	// runs before, unfenced — so a view can neither miss a delta nor
	// double-count one. Lock order, everywhere: mu → ivmMu → ckmu →
	// wstripes → db.
	ivmMu sync.RWMutex

	// wal, when non-nil, makes the engine durable (see OpenDurable): every
	// mutation is appended to the log before it is acknowledged. All other
	// durability fields are meaningful only when wal is set.
	wal *wal.Log
	// ckEvery triggers a background checkpoint every ckEvery appends.
	ckEvery int64
	// ckmu is the checkpoint barrier: every durable mutation holds it
	// shared across its append+apply pair (write, AddConstraints,
	// RemoveConstraint), so Checkpoint (exclusive) can read a log position
	// W with no mutation in flight — the snapshot it then saves is
	// guaranteed to contain every op ≤ W. Ops > W may leak into the
	// snapshot after the barrier drops; that is harmless because replay is
	// idempotent and in-order (re-applying them converges).
	ckmu sync.RWMutex
	// wstripes orders writes per tuple: write holds the stripes of its
	// batch across [log append + store apply + delta dispatch], so the log
	// order and the view order of two writes to the same tuple always
	// match their store order (writes to different tuples commute). An
	// in-memory write that no view tracks takes none.
	wstripes [64]sync.Mutex
	// ckBusy ensures at most one background checkpoint runs at a time.
	ckBusy atomic.Bool
}

// Options tunes query processing.
type Options struct {
	// Minimize picks a minimal access sub-schema (minA family) before plan
	// generation, the C3 step. Default on in DefaultOptions.
	Minimize bool
	// Rewrite applies covered-form rewriting (difference guarding,
	// selection pushdown) when the query is not covered as given.
	Rewrite bool
	// FallbackToBaseline executes uncovered queries with the conventional
	// evaluator instead of returning an error.
	FallbackToBaseline bool
	// Cache serves repeated queries from the plan cache and the
	// materialized views: queries with the same canonical key (ra.KeyOf of
	// the normalized query) and the same Minimize/Rewrite settings skip
	// coverage checking, rewriting, minimization and plan generation, and
	// a hot one is answered from its maintained view without running a
	// plan. The key is computed without allocating, so a repeat costs a
	// normalization, a key and a lookup. Default on in DefaultOptions.
	Cache bool
}

// DefaultOptions enables the full pipeline, including the plan cache.
func DefaultOptions() Options {
	return Options{Minimize: true, Rewrite: true, FallbackToBaseline: true, Cache: true}
}

// ErrNotCovered is returned when a query is not covered by the access
// schema and Options.FallbackToBaseline is off. The sharded router's
// residue route returns the same error for the same condition, so a
// cluster and a single engine reject identically.
var ErrNotCovered = errors.New("core: query is not covered by the access schema")

// NewEngine validates the schemas, builds the indices I_A on db, and
// returns an engine ready to process queries, with a plan cache of
// DefaultPlanCacheSize entries.
func NewEngine(schema ra.Schema, A *access.Schema, db *store.DB) (*Engine, error) {
	if err := A.Validate(schema); err != nil {
		return nil, err
	}
	if db == nil {
		db = store.NewDB(schema)
	}
	if err := db.BuildIndexes(A); err != nil {
		return nil, err
	}
	e := &Engine{
		schema: schema,
		acc:    A,
		db:     db,
		plans:  newPlanCache(DefaultPlanCacheSize),
	}
	e.views.Store(ivm.NewManager(ivm.DefaultConfig()))
	return e, nil
}

// SetPlanCacheCapacity replaces the plan cache with one of the given
// capacity, dropping all entries; capacity <= 0 disables caching.
func (e *Engine) SetPlanCacheCapacity(capacity int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if capacity <= 0 {
		e.plans = nil
		return
	}
	e.plans = newPlanCache(capacity)
}

// CacheStats returns a snapshot of the plan-cache counters.
func (e *Engine) CacheStats() cache.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.plans == nil {
		return cache.Stats{}
	}
	return e.plans.Stats()
}

// InvalidatePlans drops every cached plan and bumps the engine version.
// Execute does this automatically on access-schema changes; it is exposed
// for callers that mutate the database through a side channel the engine
// cannot see (e.g. DB.DropIndexes in experiments).
func (e *Engine) InvalidatePlans() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.invalidateLocked()
}

func (e *Engine) invalidateLocked() {
	e.version.Add(1)
	if e.plans != nil {
		e.plans.Purge()
	}
	e.PurgeMaterializations()
}

// Version returns the access-schema generation counter. It advances on
// AddConstraints, RemoveConstraint and InvalidatePlans — never on tuple
// inserts or deletes, whose index maintenance keeps existing plans valid.
func (e *Engine) Version() uint64 { return e.version.Load() }

// SyncVersion raises the engine's version counter to v (no-op when the
// engine is already at or past it), purging the plan cache if it moved.
// It exists for cluster membership changes: an engine freshly built to
// join a sharded cluster (internal/shard Reshard growth) starts at
// version 0 and must report the cluster's generation, or per-engine
// version lockstep — the operator's consistency probe — would read as
// skew.
func (e *Engine) SyncVersion(v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.version.Load() >= v {
		return
	}
	e.version.Store(v)
	if e.plans != nil {
		e.plans.Purge()
	}
	e.PurgeMaterializations()
}

// AccessSnapshot returns a consistent copy of the installed access schema.
// The Access field itself is replaced copy-on-write under the engine lock
// by AddConstraints / RemoveConstraint, so concurrent readers (e.g. the
// HTTP front end's /schema endpoint) must go through this accessor rather
// than read the field directly.
func (e *Engine) AccessSnapshot() *access.Schema {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return access.NewSchema(e.acc.Constraints...)
}

// Parse parses a query in the textual rule language.
func (e *Engine) Parse(src string) (ra.Query, error) {
	return parser.Parse(src, e.schema)
}

// Check normalizes q and runs CovChk against the engine's access schema.
func (e *Engine) Check(q ra.Query) (*cover.Result, error) {
	norm, err := ra.Normalize(q, e.schema)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return cover.Check(norm, e.schema, e.acc)
}

// Report describes how a query was processed and at what cost.
type Report struct {
	// Covered reports whether the executed query was covered (possibly
	// after rewriting).
	Covered bool
	// Rewritten reports that covered-form rewriting changed the query.
	Rewritten bool
	// RewriteRules lists the rewrite rules that fired.
	RewriteRules []string
	// Bounded reports whether the bounded path (evalQP) ran; false means
	// the conventional fallback (evalDBMS) was used.
	Bounded bool
	// Plan is the bounded plan (nil on the fallback path).
	Plan *plan.Plan
	// Minimized is the access sub-schema used (nil when minimization was
	// off or the fallback ran).
	Minimized *access.Schema
	// Stats is the execution cost.
	Stats exec.Stats
	// CacheHit reports that the compile artifact (coverage verdict,
	// rewrite, minimized schema, plan) came from the plan cache; the
	// analysis latencies below are zero in that case.
	CacheHit bool
	// Materialized reports that the answer was served from an
	// incrementally maintained materialization (internal/ivm) — no plan
	// was executed and Stats is zero.
	Materialized bool
	// CheckTime, PlanTime, MinimizeTime are the analysis latencies
	// (the Exp-2 measurements). CheckTime is CovChk over the whole access
	// schema: preparing the query side and checking the full schema.
	// MinimizeTime is minA's trials over the prepared query plus the
	// check of the minimized schema that plan generation then reads.
	// PlanTime is QPlan alone.
	CheckTime, PlanTime, MinimizeTime time.Duration
	// Version is the engine's access-schema generation the execution ran
	// under, read while the engine lock was held — unlike Engine.Version,
	// it cannot race with a concurrent constraint change.
	Version uint64
}

// compiled is a plan-cache entry: everything Execute derives from a query
// before touching data. Entries are immutable once published — concurrent
// executions share the plan tree read-only.
type compiled struct {
	norm      ra.Query // normalized query, after rewriting when covered via rewrite
	covered   bool
	rewritten bool
	rules     []string
	plan      *plan.Plan     // nil when not covered
	minimized *access.Schema // nil when minimization off or not covered
}

// Execute runs the full pipeline of Fig. 4 on q and returns the answer.
// With opts.Cache, the analysis half of the pipeline (CovChk, rewriting,
// minA, QPlan) runs once per canonical query form and engine version;
// repeats jump straight to plan execution.
func (e *Engine) Execute(q ra.Query, opts Options) (*exec.Table, *Report, error) {
	norm, err := ra.Normalize(q, e.schema)
	if err != nil {
		return nil, nil, err
	}
	return e.ExecuteNormalized(norm, ra.Key{}, opts)
}

// ExecuteNormalized is Execute for callers that already hold the
// normalized form of the query — the sharded router, which normalizes
// and keys once and fans the same form out to several engines. norm must
// be the result of ra.Normalize under the engine's schema, and fp must be
// ra.KeyOf(norm) or the zero Key (computed on demand, and only when
// opts.Cache is on); passing any other key corrupts plan-cache and view
// identity: a wrong key serves another query's plan or answer.
func (e *Engine) ExecuteNormalized(norm ra.Query, fp ra.Key, opts Options) (*exec.Table, *Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()

	cached := opts.Cache && e.plans != nil
	var key planKey
	if cached {
		if fp == (ra.Key{}) {
			fp = ra.KeyOf(norm)
		}
		vk := viewKey(fp, opts)
		mgr := e.views.Load()
		if mgr != nil {
			// Materialized fast path: the answer is already maintained
			// under writes, so a hot repeat is a pointer load. Views are
			// purged under the exclusive engine lock on every version
			// bump, so a snapshot served under the shared lock can never
			// outlive the access schema it was built against.
			if t, info, ok := mgr.Serve(vk); ok {
				rep := &Report{CacheHit: true, Materialized: true, Version: e.version.Load()}
				analyzed(info.(*compiled), rep)
				return t, rep, nil
			}
		}
		key = e.cacheKeyLocked(fp, opts)
		if v, hits, ok := e.plans.GetTouch(key); ok {
			c := v.(*compiled)
			t, rep, err := e.runCompiled(c, opts, &Report{CacheHit: true, Version: e.version.Load()})
			if err == nil && mgr != nil {
				if cost := float64(rep.Stats.Accessed) + 1; mgr.ShouldAdmit(vk, hits, cost) {
					e.materialize(mgr, vk, c, t, cost)
				}
			}
			return t, rep, err
		}
	}

	rep := &Report{Version: e.version.Load()}
	c, err := e.compile(norm, opts, rep)
	if err != nil {
		return nil, nil, err
	}
	if cached {
		e.plans.Put(key, c)
	}
	return e.runCompiled(c, opts, rep)
}

// planKey is a plan-cache key: the query's canonical key, the
// analysis-shaping option bits, and the engine version the entry was
// compiled under. A fixed-size value, so a lookup builds no string.
type planKey struct {
	version uint64
	query   ra.Key
	shape   uint8
}

// newPlanCache builds a plan cache sharded by the query key's leading
// bytes (a SHA-256 digest is already uniform).
func newPlanCache(capacity int) *cache.Cache[planKey] {
	return cache.NewHashed(capacity, DefaultPlanCacheShards, func(k planKey) uint64 { return k.query.Hash() })
}

// shapeOf packs the options that shape a compile artifact into key bits.
func shapeOf(opts Options) uint8 {
	var b uint8
	if opts.Minimize {
		b |= 1
	}
	if opts.Rewrite {
		b |= 2
	}
	return b
}

// cacheKeyLocked returns the plan-cache key for a query key under the
// current engine version and the analysis-shaping options. The version is
// part of the key so entries compiled before a schema or access-schema
// change can never be served after it. Called with e.mu held (shared or
// exclusive).
func (e *Engine) cacheKeyLocked(fp ra.Key, opts Options) planKey {
	return planKey{version: e.version.Load(), query: fp, shape: shapeOf(opts)}
}

// Analyze runs the analysis half of the pipeline on norm — exactly the
// compile ExecuteNormalized would perform under opts, sharing the same
// plan cache — and returns the Report WITHOUT executing anything: the
// coverage verdict (after rewriting), the rewrite trail, the bounded plan
// and minimized schema, the cache-hit flag and the analysis latencies.
// Report.Bounded is set to the coverage verdict, anticipating the bounded
// path a covered execution would take.
//
// The sharded router calls it on one shard engine for a non-distributable
// query to obtain the verdict and plan a full-copy engine would have used
// — sound because compilation is data-independent and every engine of a
// healthy cluster carries the same access schema — then runs that plan
// over fetches routed to the shards that hold the data. fp follows the
// ExecuteNormalized contract.
func (e *Engine) Analyze(norm ra.Query, fp ra.Key, opts Options) (*Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()

	cached := opts.Cache && e.plans != nil
	var key planKey
	if cached {
		if fp == (ra.Key{}) {
			fp = ra.KeyOf(norm)
		}
		key = e.cacheKeyLocked(fp, opts)
		if v, ok := e.plans.Get(key); ok {
			rep := &Report{CacheHit: true, Version: e.version.Load()}
			analyzed(v.(*compiled), rep)
			return rep, nil
		}
	}
	rep := &Report{Version: e.version.Load()}
	c, err := e.compile(norm, opts, rep)
	if err != nil {
		return nil, err
	}
	if cached {
		e.plans.Put(key, c)
	}
	analyzed(c, rep)
	return rep, nil
}

// analyzed fills the compile-derived Report fields from a cache entry.
func analyzed(c *compiled, rep *Report) {
	rep.Covered = c.covered
	rep.Rewritten = c.rewritten
	rep.RewriteRules = c.rules
	rep.Plan = c.plan
	rep.Minimized = c.minimized
	rep.Bounded = c.covered
}

// compile runs the analysis pipeline on a normalized query: CovChk,
// covered-form rewriting, access minimization and plan generation. Called
// with e.mu held shared.
func (e *Engine) compile(norm ra.Query, opts Options, rep *Report) (*compiled, error) {
	t0 := time.Now()
	res, err := cover.Check(norm, e.schema, e.acc)
	if err != nil {
		return nil, err
	}
	rep.CheckTime = time.Since(t0)

	c := &compiled{norm: norm}
	if !res.Covered && opts.Rewrite {
		rw, err := rewrite.ToCovered(norm, e.schema, e.acc)
		if err != nil {
			return nil, err
		}
		if rw.Covered {
			c.rewritten = true
			c.rules = rw.Applied
			c.norm = rw.Query
			res, err = cover.Check(rw.Query, e.schema, e.acc)
			if err != nil {
				return nil, err
			}
		}
	}
	c.covered = res.Covered
	if !res.Covered {
		return c, nil
	}

	if opts.Minimize {
		t1 := time.Now()
		res, err = minimize.Minimize(res, minimize.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rep.MinimizeTime = time.Since(t1)
		c.minimized = res.Access
	}

	t2 := time.Now()
	p, err := plan.Build(res)
	if err != nil {
		return nil, err
	}
	rep.PlanTime = time.Since(t2)
	c.plan = p
	return c, nil
}

// runCompiled executes a compile artifact: evalQP over the bounded plan
// for covered queries, evalDBMS over the normalized query otherwise.
func (e *Engine) runCompiled(c *compiled, opts Options, rep *Report) (*exec.Table, *Report, error) {
	rep.Covered = c.covered
	rep.Rewritten = c.rewritten
	rep.RewriteRules = c.rules
	rep.Plan = c.plan
	rep.Minimized = c.minimized

	if !c.covered {
		if !opts.FallbackToBaseline {
			return nil, rep, ErrNotCovered
		}
		table, st, err := exec.RunBaseline(c.norm, e.schema, e.db)
		if err != nil {
			return nil, rep, err
		}
		rep.Stats = st
		return table, rep, nil
	}

	rep.Bounded = true
	table, st, err := exec.Run(c.plan, e.db)
	if err != nil {
		return nil, rep, err
	}
	rep.Stats = st
	return table, rep, nil
}

// ExecuteBaseline runs q with the conventional evaluator only (evalDBMS).
func (e *Engine) ExecuteBaseline(q ra.Query) (*exec.Table, exec.Stats, error) {
	norm, err := ra.Normalize(q, e.schema)
	if err != nil {
		return nil, exec.Stats{}, err
	}
	return exec.RunBaseline(norm, e.schema, e.db)
}

// SQL translates into a SQL query over the index relations (Plan2SQL) the
// bounded plan Execute runs for q under DefaultOptions: after rewriting
// and minimization, shared with Execute through the plan cache. The query
// must be covered.
func (e *Engine) SQL(q ra.Query) (string, error) {
	norm, err := ra.Normalize(q, e.schema)
	if err != nil {
		return "", err
	}
	rep, err := e.Analyze(norm, ra.Key{}, DefaultOptions())
	if err != nil {
		return "", err
	}
	if !rep.Covered {
		return "", fmt.Errorf("core: query is not covered; no bounded SQL exists")
	}
	return sqlgen.ToSQL(rep.Plan)
}

// Discover mines additional access constraints from the current instance
// (the C1 step) and returns them without installing them.
func (e *Engine) Discover(opts discovery.Options) (*access.Schema, error) {
	return discovery.Discover(e.db, opts)
}

// AddConstraints installs extra constraints, building their indices. The
// access schema is replaced copy-on-write (in-flight cover.Results keep
// their immutable snapshot) and the plan cache is invalidated: plans
// compiled before the change may miss access paths the new constraints
// enable.
func (e *Engine) AddConstraints(cs ...access.Constraint) error {
	for _, c := range cs {
		if err := c.Validate(e.schema); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		e.ckmu.RLock()
		defer e.ckmu.RUnlock()
	}
	next := access.NewSchema(e.acc.Constraints...)
	var built []access.Constraint
	for _, c := range cs {
		dup := false
		for _, old := range next.Constraints {
			if old.Key() == c.Key() {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if _, err := e.db.BuildIndex(c); err != nil {
			// Atomic failure: drop the indices built earlier in this batch
			// so no orphan index is left registered (it would be maintained
			// on every write but usable by no plan).
			for _, b := range built {
				e.db.DropIndex(b)
			}
			return err
		}
		built = append(built, c)
		next.Constraints = append(next.Constraints, c)
	}
	if len(built) > 0 {
		e.acc = next
		e.invalidateLocked()
		if e.wal != nil {
			for _, c := range built {
				if _, err := e.wal.Append(wal.Record{Kind: wal.KindAddConstraint, Con: c}); err != nil {
					// The constraint is installed but not logged; the log
					// retains the error and Health reports degraded.
					return err
				}
			}
		}
	}
	return nil
}

// RemoveConstraint uninstalls the constraint with c's key, dropping its
// index and invalidating the plan cache — a cached plan whose fetch steps
// use the dropped index must never be served again. It reports whether the
// constraint was present.
func (e *Engine) RemoveConstraint(c access.Constraint) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		e.ckmu.RLock()
		defer e.ckmu.RUnlock()
	}
	kept := make([]access.Constraint, 0, len(e.acc.Constraints))
	found := false
	for _, old := range e.acc.Constraints {
		if old.Key() == c.Key() {
			found = true
			continue
		}
		kept = append(kept, old)
	}
	if !found {
		return false
	}
	// Invalidate before the index disappears so no execution can race a
	// stale plan onto a half-dropped index (executions are excluded by the
	// write lock for the whole critical section anyway).
	e.invalidateLocked()
	e.acc = access.NewSchema(kept...)
	e.db.DropIndex(c)
	if e.wal != nil {
		// Log after apply, still under the engine lock and the checkpoint
		// barrier; an append failure is retained by the log and surfaced
		// through Health.
		_, _ = e.wal.Append(wal.Record{Kind: wal.KindRemoveConstraint, Con: c})
	}
	return true
}

// Insert adds a tuple to the database. Cached plans remain valid: the
// indices I_A are maintained incrementally in O(N_A) time under insertions
// (Proposition 12), so this neither invalidates the plan cache nor blocks
// concurrent executions beyond the store's own write lock.
func (e *Engine) Insert(rel string, t value.Tuple) (bool, error) {
	ops := [1]store.TupleOp{{Rel: rel, T: t}}
	changed, err := e.write(ops[:])
	return err == nil && changed[0], err
}

// Delete removes a tuple from the database. Like Insert, it keeps every
// cached plan valid via incremental index maintenance.
func (e *Engine) Delete(rel string, t value.Tuple) (bool, error) {
	ops := [1]store.TupleOp{{Rel: rel, T: t, Del: true}}
	changed, err := e.write(ops[:])
	return err == nil && changed[0], err
}

// ApplyBatch applies a batch of tuple writes in order under a single store
// lock acquisition. Like store.DB.ApplyBatch, an invalid op fails alone:
// every other op is applied (and, when durable, logged) and the first
// error is returned.
func (e *Engine) ApplyBatch(ops []store.TupleOp) error {
	_, err := e.write(ops)
	return err
}

// write is the engine's one tuple-write path. It reports per op whether
// the store changed, with store.DB.ApplyBatch's semantics: an invalid op
// fails alone and the first error is returned. In lock order it
//
//  1. holds ivmMu shared, so no view is mid-seed while deltas flow;
//  2. when durable, holds ckmu shared, so a checkpoint never stamps a log
//     position between an op's append and its apply;
//  3. when durable or when a view tracks a batched relation, holds the
//     batch's write stripes in ascending order, so per tuple the log,
//     store and view orders agree;
//  4. when durable, appends every op that passes validation — an op is
//     logged only if replaying it succeeds, recovery treats a replay
//     failure as corruption — before anything is applied;
//  5. applies the batch in one store lock round and folds the ops that
//     changed the store into the tracking views.
//
// The log is appended before the write is acknowledged, and a durable
// write may start a background checkpoint once its locks are released.
func (e *Engine) write(ops []store.TupleOp) ([]bool, error) {
	e.ivmMu.RLock()
	mgr := e.views.Load()
	track := false
	for i := 0; mgr != nil && !track && i < len(ops); i++ {
		track = mgr.Tracks(ops[i].Rel)
	}
	durable := e.wal != nil
	if durable {
		e.ckmu.RLock()
	}
	var stripes uint64
	if durable || track {
		for _, op := range ops {
			stripes |= 1 << writeStripe(op.Rel, op.T)
		}
		for s := stripes; s != 0; s &= s - 1 {
			e.wstripes[bits.TrailingZeros64(s)].Lock()
		}
	}
	var (
		changed []bool
		err     error
	)
	if durable {
		for _, op := range ops {
			if e.validateWrite(op) != nil {
				continue // the store rejects it below with the same error
			}
			if _, err = e.wal.Append(wal.Record{Kind: wal.KindTuple, Op: op}); err != nil {
				break
			}
		}
	}
	if err == nil {
		changed, err = e.db.ApplyBatch(ops)
		for i := 0; track && i < len(ops); i++ {
			if changed[i] {
				mgr.OnWrite(ops[i : i+1])
			}
		}
	}
	for s := stripes; s != 0; s &= s - 1 {
		e.wstripes[bits.TrailingZeros64(s)].Unlock()
	}
	if durable {
		e.ckmu.RUnlock()
	}
	e.ivmMu.RUnlock()
	if durable {
		e.maybeCheckpoint()
	}
	return changed, err
}

// writeStripe picks the write-ordering stripe of a tuple. The key is
// encoded into a stack buffer so that picking a stripe allocates nothing.
func writeStripe(rel string, t value.Tuple) int {
	var buf [128]byte
	b := append(buf[:0], rel...)
	b = append(b, 0)
	for _, v := range t {
		b = value.AppendKey(b, v)
	}
	h := fnv.New32a()
	h.Write(b)
	return int(h.Sum32() % 64)
}
