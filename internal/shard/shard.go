// Package shard partitions the bounded-evaluation serving layer across N
// independent core.Engine instances and routes queries and writes among
// them, scaling the single-engine ceiling horizontally while preserving
// every per-engine invariant (the PR 1 plan-cache validity rules) shard by
// shard. No engine holds the full database: the per-node footprint is
// O(|D|/N) for partitioned data plus the broadcast set.
//
// # Partitioning
//
// Each relation is either partitioned — its tuples are distributed across
// the shards by a hash of one attribute, the relation's partition key,
// chosen from the X side of its access constraints — or broadcast, with a
// full copy on every shard. Small or unkeyed relations are broadcast;
// DeriveKeys implements the default policy and Spec.Keys overrides it.
// The assignment is not fixed for the life of the cluster: Repartition
// changes one relation's placement online — key to key, key to broadcast,
// or broadcast to key — and a broadcast relation that grows past
// Spec.BroadcastMaxRows is demoted to partitioned automatically. The live
// assignment is versioned by a generation counter, exactly as the ring is
// versioned by an epoch.
//
// Placement of partitioned tuples is a consistent-hash ring of virtual
// nodes (ring.go), not hash % N: the ring can grow or shrink one shard at
// a time while moving only ~1/N of the keyed rows, which is what makes
// Reshard an online operation instead of a rebuild. Reshard and
// Repartition are one placement-move protocol (move.go), which documents
// why every intermediate state stays exact. Routing decisions are stamped
// with the (epoch, generation) they were made under and re-derived when
// either moves.
//
// # Routing
//
// For every query the router picks the cheapest correct strategy:
//
//   - single-shard fast path: if the query touches no partitioned
//     relation, any shard can answer it (the router picks one by the
//     query's canonical key, keeping each shard's plan cache hot on its
//     own residents).
//     If every partitioned occurrence binds its partition key to a
//     constant — the covered-access case, where the indexed atoms of the
//     query pin the key — and all constants hash to the same shard, that
//     shard alone holds every relevant tuple and answers exactly.
//   - scatter/gather: when the query's shape distributes over the
//     partitioning (see route.go for the analysis), every shard executes
//     it, one after another on the caller's goroutine, and the router
//     merges rows (set union), access counts (sums) and coverage,
//     boundedness, cache and view verdicts (conjunction). Bounded plans
//     make scatter cheap: on shards that hold no matching slice of the
//     partitioned relation, the plan's first fetch comes back empty and
//     the execution finishes in microseconds — less than handing it to
//     another goroutine would cost.
//   - residue: queries that neither fast-path nor distribute as a whole
//     (e.g. a difference whose right side reads a partitioned relation
//     without binding its key, or a join of two partitioned relations off
//     their keys) are answered at the router (residue.go) by the single
//     engine's own evaluation over routed reads (source.go): a covered one
//     runs its bounded plan, each fetch sent to the member(s) holding its
//     index bucket; an uncovered one under the baseline fallback runs the
//     baseline, each scan reading the members that hold the relation and
//     keeping from each the rows the ring places there. Either way it
//     reads exactly what a single engine reads. No engine with a full copy
//     of the database exists any more.
//
// # Writes
//
// Writes route to the owning shard by the ring for partitioned relations,
// synchronously, under a tuple-ordering stripe. Broadcast writes commit
// synchronously on the anchor — member 0, which survives every reshard —
// and the copies for the other members are enqueued on a batched,
// per-relation apply queue (applyqueue.go). A read that depends on
// broadcast relation R fences R's lane first (the per-relation watermark
// fence), so read-your-writes holds per relation and a backlog on an
// unrelated relation never stalls the read. Each engine's incremental
// ⟨A, I_A⟩ maintenance keeps its cached plans valid — the serving-layer
// invariant holds per shard, and Version never moves under tuple churn,
// including the churn of a placement move itself. Access-schema changes
// fan out to every engine and bump all versions in lockstep.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// DefaultMinPartitionRows is the broadcast-everywhere threshold of
// DeriveKeys: relations with fewer rows are cheaper to copy to every
// shard than to split.
const DefaultMinPartitionRows = 256

// DefaultBroadcastMaxRows is the growth threshold at which a broadcast
// relation is automatically demoted to partitioned: once its logical row
// count exceeds this, keeping a copy on every shard costs more memory
// than the fan-in it saves, so the router triggers a background
// Repartition onto a derived key.
const DefaultBroadcastMaxRows = 4096

// Spec configures a Router.
type Spec struct {
	// Shards is the initial number of partitions (>= 1). Reshard can grow
	// or shrink the live count afterwards; NumShards reports it.
	Shards int
	// Keys maps relation name to its partition-key attribute. Relations
	// absent from the map are broadcast to every shard. nil means
	// DeriveKeys(schema, A, db, DefaultMinPartitionRows). This is the
	// initial assignment; Repartition moves it afterwards and Keys()
	// reports the live one.
	Keys map[string]string
	// PlanCacheSize overrides each engine's plan-cache capacity
	// (0 = the core default). Engines created by Reshard growth inherit it.
	PlanCacheSize int
	// Vnodes is the virtual nodes per shard on the consistent-hash ring
	// (0 = DefaultVnodes).
	Vnodes int
	// BroadcastMaxRows is the row count past which a broadcast relation
	// is demoted to partitioned by a background Repartition
	// (0 = DefaultBroadcastMaxRows, negative = never demote).
	BroadcastMaxRows int
}

// DeriveKeys picks a partition key per relation from the access schema:
// the attribute that appears in the X (index) side of the most
// non-membership constraints, breaking ties toward shorter X lists and
// then lexicographically — the attribute the covered workload most often
// binds. Relations with no such attribute, or with fewer than minRows
// tuples in db (skipped when db is nil or minRows <= 0), are left out of
// the map and therefore broadcast.
func DeriveKeys(schema ra.Schema, A *access.Schema, db *store.DB, minRows int) map[string]string {
	keys := map[string]string{}
	for _, rel := range schema.Relations() {
		if db != nil && minRows > 0 {
			rr, err := db.Rel(rel)
			if err != nil || rr.Len() < minRows {
				continue
			}
		}
		if attr, ok := deriveKey(schema, A, rel); ok {
			keys[rel] = attr
		}
	}
	return keys
}

// deriveKey scores one relation's attributes against the access schema
// and returns the best partition key, or ok=false when no attribute
// appears on the X side of any non-membership constraint.
func deriveKey(schema ra.Schema, A *access.Schema, rel string) (string, bool) {
	type cand struct {
		attr    string
		score   int
		minXLen int
	}
	var best *cand
	for _, a := range schema[rel] {
		c := cand{attr: a, minXLen: 1 << 30}
		for _, con := range A.ForRel(rel) {
			if con.IsIndexing() && len(con.X) == 1 {
				continue // membership R(a → a, 1): holds vacuously, no signal
			}
			for _, x := range con.X {
				if x == a {
					c.score++
					if len(con.X) < c.minXLen {
						c.minXLen = len(con.X)
					}
					break
				}
			}
		}
		if c.score == 0 {
			continue
		}
		if best == nil || c.score > best.score ||
			(c.score == best.score && (c.minXLen < best.minXLen ||
				(c.minXLen == best.minXLen && c.attr < best.attr))) {
			cc := c
			best = &cc
		}
	}
	if best == nil {
		return "", false
	}
	return best.attr, true
}

// wstripes is the number of write-ordering stripes; writes to the same
// tuple serialize on one stripe so every engine applies them in the same
// order. A placement move's copy and sweep loops take the same stripe per
// row, which is how it serializes against concurrent writes of the rows it
// is moving.
const wstripes = 256

// member is one shard engine plus its router-side execution counter.
// Members are identified by pointer: a Reshard that grows the cluster
// keeps the surviving members and appends fresh ones, so counters carry
// across ring changes.
type member struct {
	eng     *core.Engine
	queries atomic.Int64
}

// ringState is the immutable routing view swapped atomically at each ring
// epoch: the ring, the member engines it places keys on, and the epoch
// number. Readers load it once per query, so a query never observes a
// half-flipped ring.
type ringState struct {
	epoch   uint64
	ring    *Ring
	members []*member
}

// partState is the immutable placement assignment swapped atomically at
// each Repartition flip: which relations are partitioned, by which
// attribute, and the column position of that attribute. Readers load it
// once per query; the generation stamps cached routing decisions the same
// way the ring epoch does.
type partState struct {
	gen    uint64
	keys   map[string]string
	keyPos map[string]int
}

// Router partitions a database across N core.Engine shards and implements
// core.Service over the cluster, so the HTTP front end (internal/server)
// and the replay harness (internal/bench) serve it exactly like a single
// engine. No member holds the full database; queries whose shape cannot
// be distributed are evaluated at the router over reads routed to the
// shards (residue.go).
//
// A Router is safe for concurrent use. All reads and writes must go
// through it once it is built: New consumes the source database to build
// the shard slices, and writes applied directly to any member engine
// would diverge from the cluster.
type Router struct {
	schema ra.Schema
	spec   Spec

	// part is the live placement assignment (partition keys and their
	// column positions), swapped atomically by Repartition's flip.
	part atomic.Pointer[partState]

	// state is the live routing view (ring, members, epoch), swapped
	// atomically by Reshard's flip.
	state atomic.Pointer[ringState]
	// move is the in-flight placement move (move.go), nil when stable. It
	// is published with every write stripe held and runs under rmu.
	move atomic.Pointer[move]
	// rs is the read fence: every Execute holds it shared from the moment
	// it loads state until its engines have answered, and a move's flip
	// takes it exclusively (and releases immediately) before the cleanup
	// sweep — so no query that routed by the old view can still be running
	// when the sweep starts deleting moved rows.
	rs sync.RWMutex

	// wmu stripes same-tuple writes into a fixed order across engines.
	wmu [wstripes]sync.Mutex
	// cmu serializes access-schema mutations so concurrent
	// AddConstraints / RemoveConstraint calls cannot interleave their
	// per-engine fan-outs and break version lockstep. A growing Reshard
	// builds its engines and publishes its move under it, so they join the
	// fan-out from the schema snapshot they were built on.
	cmu sync.Mutex
	// rmu serializes Reshard and Repartition calls; TryLock turns overlap
	// into an error.
	rmu sync.Mutex

	// ivmCfg is the last SetIVMConfig fan-out, replayed onto engines a
	// growing Reshard builds; nil means engines keep their default.
	ivmCfg atomic.Pointer[ivm.Config]

	// decisions caches routing decisions by canonical query key. Routing
	// depends on the canonical query, the placement assignment and the
	// ring — never on data or the access schema — so every entry is
	// stamped with its (epoch, generation) and ignored once either moves.
	decisions *cache.Cache[ra.Key]

	// aq is the broadcast apply pipeline: the anchor's write commits
	// synchronously, the other members' copies are enqueued here per
	// relation and applied in batches (applyqueue.go). Reads fence the
	// lanes of the broadcast relations they touch first.
	aq *applyQueue

	// sizes tracks the logical row count per relation, maintained by the
	// first (verdict-source) apply of every write, so DBSize needs no
	// fence and no full engine: the sum counts every tuple exactly once
	// regardless of replication or migration copies.
	sizes map[string]*atomic.Int64

	// demoting has one latch per relation; set while a growth-triggered
	// background demotion of that broadcast relation is in flight, so one
	// burst of inserts starts one Repartition.
	demoting map[string]*atomic.Bool

	// routed counts routing decisions by kind.
	routed [3]atomic.Int64

	// Residue-execution counters (residue.go, source.go, move.go),
	// surfaced by ResidueStats.
	resRepartitions atomic.Int64
	resBytesShipped atomic.Int64
	resEvaluated    atomic.Int64

	// hookMigBatch, when set, runs between a move's copy and sweep
	// batches. Tests use it to slow or freeze a move deterministically; it
	// is never set in production.
	hookMigBatch func()

	// wal, when non-nil, makes the cluster durable (built by OpenDurable,
	// never set after traffic starts): every tuple write is appended to
	// the log by the apply queue before it is acknowledged, constraint
	// changes are logged under cmu, and checkpoints snapshot a logical
	// image assembled from the shard slices at a stamped LSN. ckEvery
	// is the automatic checkpoint cadence in logged records (<= 0 off),
	// ckBusy collapses concurrent triggers to one background checkpoint.
	wal     *wal.Log
	ckEvery int64
	ckBusy  atomic.Bool
}

// New partitions db across spec.Shards engines and returns the router.
// Partitioned relations are split by consistent hash of their key
// attribute, broadcast ones copied to every shard; db itself is only a
// source and is not retained, so the caller must route all subsequent
// reads and writes through the returned Router.
func New(schema ra.Schema, A *access.Schema, db *store.DB, spec Spec) (*Router, error) {
	if spec.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", spec.Shards)
	}
	if db == nil {
		db = store.NewDB(schema)
	}
	if spec.Keys == nil {
		spec.Keys = DeriveKeys(schema, A, db, DefaultMinPartitionRows)
	}
	if spec.Vnodes <= 0 {
		spec.Vnodes = DefaultVnodes
	}
	keys := make(map[string]string, len(spec.Keys))
	keyPos := map[string]int{}
	for rel, attr := range spec.Keys {
		attrs, ok := schema[rel]
		if !ok {
			return nil, fmt.Errorf("shard: partition key on unknown relation %q", rel)
		}
		pos := attrPos(attrs, attr)
		if pos < 0 {
			return nil, fmt.Errorf("shard: relation %s has no attribute %q to partition by", rel, attr)
		}
		keys[rel] = attr
		keyPos[rel] = pos
	}
	r := &Router{
		schema:    schema,
		spec:      spec,
		decisions: cache.NewHashed(4096, 8, ra.Key.Hash),
		sizes:     map[string]*atomic.Int64{},
		demoting:  map[string]*atomic.Bool{},
	}
	r.part.Store(&partState{gen: 1, keys: keys, keyPos: keyPos})
	ring := NewRing(spec.Shards, spec.Vnodes)
	dbs := make([]*store.DB, spec.Shards)
	for i := range dbs {
		dbs[i] = store.NewDB(schema)
	}
	for _, rel := range schema.Relations() {
		r.sizes[rel] = &atomic.Int64{}
		r.demoting[rel] = &atomic.Bool{}
		rows, err := db.Rows(rel)
		if err != nil {
			return nil, err
		}
		r.sizes[rel].Store(int64(len(rows)))
		pos, partitioned := keyPos[rel]
		for _, t := range rows {
			if partitioned {
				if _, err := dbs[ring.OwnerOf(t[pos])].Insert(rel, t); err != nil {
					return nil, err
				}
				continue
			}
			for _, sdb := range dbs {
				if _, err := sdb.Insert(rel, t); err != nil {
					return nil, err
				}
			}
		}
	}
	members := make([]*member, spec.Shards)
	for i, sdb := range dbs {
		eng, err := core.NewEngine(schema, A, sdb)
		if err != nil {
			return nil, err
		}
		members[i] = &member{eng: eng}
	}
	r.aq = newApplyQueue(schema, nil)
	r.state.Store(&ringState{epoch: 1, ring: ring, members: members})
	if spec.PlanCacheSize > 0 {
		r.SetPlanCacheCapacity(spec.PlanCacheSize)
	}
	return r, nil
}

// attrPos returns the column position of attribute name in attrs, or -1.
func attrPos(attrs []string, name string) int {
	for i, a := range attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// OpenDurable opens (or creates) a durable cluster backed by the log in
// cfg.Dir. Recovery mirrors core.OpenDurable: when the directory holds
// prior state, db and A are IGNORED — the newest loadable checkpoint is
// loaded, the log suffix replayed onto it, and the recovered database is
// re-partitioned across spec.Shards fresh engines (indices rebuilt once
// per engine). On a fresh directory the provided db and A are adopted
// and an initial checkpoint makes the seed durable immediately. The log
// records logically ordered ops over the whole instance, so a single
// engine and a cluster recover to identical logical states from the same
// directory. Placement (partition keys) is not logical state and is not
// logged; recovery re-derives it from spec.Keys.
func OpenDurable(schema ra.Schema, A *access.Schema, db *store.DB, spec Spec, cfg core.DurableConfig) (*Router, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: durable router needs a data directory")
	}
	rec, err := wal.RecoverDB(cfg.Dir, schema)
	if err != nil {
		return nil, err
	}
	if rec.Found {
		db = rec.DB
		A = access.NewSchema(rec.Constraints...)
	} else if A == nil {
		A = access.NewSchema()
	}
	log, err := wal.Open(cfg.Dir, cfg.WAL)
	if err != nil {
		return nil, err
	}
	r, err := New(schema, A, db, spec)
	if err != nil {
		log.Close()
		return nil, err
	}
	r.wal = log
	r.ckEvery = cfg.Every()
	r.aq.wal = log
	if !rec.Found {
		if err := r.Checkpoint(); err != nil {
			log.Close()
			return nil, err
		}
	}
	return r, nil
}

// Router implements core.Service.
var _ core.Service = (*Router)(nil)

// hashKey hashes a canonical byte encoding to a shard-selection value
// (64-bit FNV-1a, computed inline so that hashing allocates nothing). The
// same function is used for every relation, so equal key values land on
// the same shard regardless of which relation carries them — the property
// co-partitioned joins rely on.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// anchor returns member 0's engine — the member that survives every
// reshard and commits every broadcast write synchronously, making it the
// consistent source for the access schema, versions and broadcast rows.
func (r *Router) anchor() *core.Engine {
	return r.state.Load().members[0].eng
}

// ownerOf returns the index of the shard owning tuples whose partition
// key is v under the current ring.
func (r *Router) ownerOf(v value.Value) int {
	return r.state.Load().ring.OwnerOf(v)
}

// NumShards returns the live number of partitions; Reshard changes it.
func (r *Router) NumShards() int { return len(r.state.Load().members) }

// RingEpoch returns the current ring epoch. It starts at 1 and advances
// by one at each Reshard flip; routing decisions cached under an older
// epoch are never used again.
func (r *Router) RingEpoch() uint64 { return r.state.Load().epoch }

// Keys returns the live partition-key assignment (a copy). Relations
// absent from the map are broadcast.
func (r *Router) Keys() map[string]string {
	ps := r.part.Load()
	out := make(map[string]string, len(ps.keys))
	for k, v := range ps.keys {
		out[k] = v
	}
	return out
}

// Schema returns the relational schema the cluster is bound to. The
// returned map is shared and must be treated as read-only.
func (r *Router) Schema() ra.Schema { return r.schema }

// Parse parses a query in the textual rule language.
func (r *Router) Parse(src string) (ra.Query, error) {
	return parser.Parse(src, r.schema)
}

// Execute normalizes q, picks a routing strategy (single shard,
// scatter/gather, or distributed residue; see the package comment) and
// returns the merged answer. Results are identical to a single engine
// over the unpartitioned database — including while a Reshard or
// Repartition is migrating rows.
//
// The analysis is amortized: the query is normalized and keyed
// (ra.KeyOf) once, the routing decision is cached under the key, the ring
// epoch and the placement generation (sound: the key identifies the
// canonical query including its constants, and routing depends only on
// the query, the placement and the ring), and the key is handed to the
// member engines so none of them repeats the work.
//
// Read-your-writes: before touching any engine the router fences the
// apply-queue lanes of exactly the broadcast relations the query reads
// (dec.brels) — acknowledged writes to those relations are applied
// everywhere first, while backlogs on unrelated relations are left alone.
//
// A residue-routed plan that ran into a constraint change still fanning
// out (errSchemaMoved) is routed once more while holding cmu, which every
// change holds for its whole fan-out, so the second run sees one schema
// on every member.
func (r *Router) Execute(q ra.Query, opts core.Options) (*exec.Table, *core.Report, error) {
	norm, err := ra.Normalize(q, r.schema)
	if err != nil {
		return nil, nil, err
	}
	fp := ra.KeyOf(norm)
	t, rep, err := r.execute(norm, fp, opts)
	if errors.Is(err, errSchemaMoved) {
		r.cmu.Lock()
		defer r.cmu.Unlock()
		return r.execute(norm, fp, opts)
	}
	return t, rep, err
}

// execute routes and answers one normalized query under the read fence.
func (r *Router) execute(norm ra.Query, fp ra.Key, opts core.Options) (*exec.Table, *core.Report, error) {
	r.rs.RLock()
	defer r.rs.RUnlock()
	st := r.state.Load()
	ps := r.part.Load()
	var dec decision
	if v, ok := r.decisions.Get(fp); ok && v.(decision).epoch == st.epoch && v.(decision).pgen == ps.gen {
		dec = v.(decision)
	} else {
		dec = r.route(norm, fp, st.ring, len(st.members), ps)
		dec.epoch = st.epoch
		dec.pgen = ps.gen
		r.decisions.Put(fp, dec)
	}
	for _, rel := range dec.brels {
		r.aq.fenceRel(rel)
	}
	switch dec.kind {
	case routeSingle:
		m := st.members[dec.shard]
		r.routed[routeSingle].Add(1)
		m.queries.Add(1)
		return m.eng.ExecuteNormalized(norm, fp, opts)
	case routeResidue:
		r.routed[routeResidue].Add(1)
		return r.execResidue(norm, fp, opts, st, ps)
	}
	r.routed[routeScatter].Add(1)
	return r.gather(norm, fp, opts, st.members)
}

// gather executes norm on every given member in member order, on the
// caller's goroutine, and merges the results: rows by set union, access
// counts by summation, coverage, boundedness, cache and view verdicts by
// conjunction. A scatter read of a bounded plan costs microseconds per
// member, less than a goroutine handoff, so the members are not read in
// parallel. Every member runs even after one fails; the first error in
// member order is returned and every sibling result is discarded.
func (r *Router) gather(norm ra.Query, fp ra.Key, opts core.Options, members []*member) (*exec.Table, *core.Report, error) {
	start := time.Now()
	tables := make([]*exec.Table, len(members))
	reports := make([]*core.Report, len(members))
	var first error
	for i, m := range members {
		m.queries.Add(1)
		var err error
		tables[i], reports[i], err = m.eng.ExecuteNormalized(norm, fp, opts)
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, nil, first
	}
	out := exec.UnionTables(tables[0].Cols, tables...)
	rep := *reports[0]
	for _, sub := range reports[1:] {
		rep.Covered = rep.Covered && sub.Covered
		rep.Bounded = rep.Bounded && sub.Bounded
		rep.CacheHit = rep.CacheHit && sub.CacheHit
		rep.Materialized = rep.Materialized && sub.Materialized
		rep.Stats.Accessed += sub.Stats.Accessed
		rep.Stats.Fetched += sub.Stats.Fetched
		rep.Stats.Scanned += sub.Stats.Scanned
		if sub.CheckTime > rep.CheckTime {
			rep.CheckTime = sub.CheckTime
		}
		if sub.PlanTime > rep.PlanTime {
			rep.PlanTime = sub.PlanTime
		}
		if sub.MinimizeTime > rep.MinimizeTime {
			rep.MinimizeTime = sub.MinimizeTime
		}
		if sub.Version > rep.Version {
			rep.Version = sub.Version
		}
	}
	rep.Stats.Duration = time.Since(start)
	return out, &rep, nil
}

// stripeOf picks the write-ordering stripe for one tuple. The key is
// encoded into a stack buffer so that picking a stripe allocates nothing.
func stripeOf(rel string, t value.Tuple) uint64 {
	var buf [128]byte
	b := append(buf[:0], rel...)
	b = append(b, 0)
	for _, v := range t {
		b = value.AppendKey(b, v)
	}
	return hashKey(b) % wstripes
}

// Insert adds a tuple to the cluster: synchronously to the owning shard
// for a partitioned relation; for a broadcast relation synchronously to
// the anchor and through the batched per-relation apply queue to the
// rest. Same-tuple writes are ordered by an internal stripe lock so all
// member engines converge to the same state. Each engine maintains its
// indices incrementally, so cached plans everywhere remain valid and
// Version does not change. During a placement move the write additionally
// covers the tuple's placement under the incoming assignment (move.go).
func (r *Router) Insert(rel string, t value.Tuple) (bool, error) {
	return r.mutate(rel, t, false)
}

// Delete removes a tuple from the cluster, routing like Insert. During
// a placement move, deletes cover the tuple's placement under both
// assignments so no stale copy of the tuple can outlive it.
func (r *Router) Delete(rel string, t value.Tuple) (bool, error) {
	return r.mutate(rel, t, true)
}

// mutate applies one tuple write: validate against the schema up front,
// then under the tuple's ordering stripe commit synchronously to the first
// target and either enqueue or apply the rest. Stable cluster: the targets
// are the tuple's placement under the live assignment — the ring owner
// (partitioned) or every member, anchor first (broadcast). While the
// relation's placement is moving, the move picks them (move.targets). The
// first target always holds a complete slice for the tuple under the
// assignment readers are currently routed by, so its verdict is the
// caller's result and it maintains the logical size counter.
//
// A relation that is broadcast — on both sides, if it is moving — commits
// on the anchor (targets[0]) and enqueues the other members' copies on its
// lane; the enqueue happens under the stripe, which makes lane order equal
// stripe order per tuple. Every other write is synchronous on all its
// targets, passing through the queue only to obtain a write-ahead-log LSN
// in durable mode.
func (r *Router) mutate(rel string, t value.Tuple, del bool) (bool, error) {
	attrs, ok := r.schema[rel]
	if !ok {
		return false, fmt.Errorf("shard: unknown relation %q", rel)
	}
	if !del && len(t) != len(attrs) {
		return false, fmt.Errorf("shard: %s expects %d values, got %d", rel, len(attrs), len(t))
	}
	// Clone before enqueueing: the queued op outlives this call, and the
	// caller is free to reuse its tuple slice afterwards.
	t = t.Clone()
	mu := &r.wmu[stripeOf(rel, t)]
	mu.Lock()
	changed, lane, err := r.writeLocked(rel, t, del, len(attrs))
	mu.Unlock()
	if err != nil {
		return false, err
	}
	r.maybeCheckpoint()
	if changed && !del && lane {
		r.maybeDemote(rel)
	}
	return changed, nil
}

// writeLocked is mutate's critical section, run under the tuple's stripe.
// It reports the first target's verdict and whether the relation's lane
// carried the write.
func (r *Router) writeLocked(rel string, t value.Tuple, del bool, arity int) (changed, lane bool, err error) {
	// Load the move under the stripe: it is published with every stripe
	// held, so a write sees either no move and the assignment before it,
	// or the move with the lanes it closes already drained.
	var targets []*member
	if mv := r.move.Load(); mv != nil && mv.moves(rel) {
		if lane = mv.lane(rel); lane || len(t) == arity {
			targets = mv.targets(rel, t, del)
		}
	} else {
		a := r.live()
		if lane = !a.keyed(rel); lane || len(t) == arity {
			targets = a.placement(rel, t)
		}
	}
	if targets == nil {
		// Placing a keyed tuple reads its key column.
		return false, false, fmt.Errorf("shard: %s expects %d values, got %d", rel, arity, len(t))
	}
	apply := (*core.Engine).Insert
	if del {
		apply = (*core.Engine).Delete
	}
	if changed, err = apply(targets[0].eng, rel, t); err != nil {
		return false, lane, err
	}
	// In durable mode the enqueue appends to the write-ahead log before
	// the write is acknowledged; a log failure rejects the write (and
	// poisons the log — Health reports the retained error until restart).
	if lane && len(targets) > 1 {
		engs := make([]*core.Engine, 0, len(targets)-1)
		for _, m := range targets[1:] {
			engs = append(engs, m.eng)
		}
		if _, err := r.aq.enqueue(rel, t, del, engs); err != nil {
			return false, lane, err
		}
	} else {
		for _, m := range targets[1:] {
			if _, err := apply(m.eng, rel, t); err != nil {
				return false, lane, err
			}
		}
		if r.wal != nil {
			if _, err := r.aq.enqueue(rel, t, del, nil); err != nil {
				return false, lane, err
			}
		}
	}
	if changed {
		if del {
			r.sizes[rel].Add(-1)
		} else {
			r.sizes[rel].Add(1)
		}
	}
	return changed, lane, nil
}

// maybeDemote triggers a background Repartition of a broadcast relation
// whose logical row count has outgrown the broadcast threshold, onto a
// key derived from the access schema (first schema attribute when none
// scores). The per-relation latch collapses a burst of inserts to one
// attempt; a failed or skipped attempt (e.g. a Reshard in flight) clears
// the latch so a later insert retries.
func (r *Router) maybeDemote(rel string) {
	max := r.spec.BroadcastMaxRows
	if max == 0 {
		max = DefaultBroadcastMaxRows
	}
	if max < 0 || r.sizes[rel].Load() <= int64(max) {
		return
	}
	latch := r.demoting[rel]
	if !latch.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer latch.Store(false)
		key, ok := deriveKey(r.schema, r.anchor().AccessSnapshot(), rel)
		if !ok {
			key = r.schema[rel][0]
		}
		_, _ = r.Repartition(context.Background(), rel, key)
	}()
}

// maybeCheckpoint starts a background checkpoint when the replay debt
// passed the configured cadence and none is already running.
func (r *Router) maybeCheckpoint() {
	if r.wal == nil || r.ckEvery <= 0 || r.wal.SinceCheckpoint() < r.ckEvery {
		return
	}
	if !r.ckBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer r.ckBusy.Store(false)
		_ = r.Checkpoint() // failure is retained by the log; Health reports it
	}()
}

// Checkpoint writes a durable, LSN-stamped snapshot of the logical
// database — assembled from the shard slices, since no single engine
// holds it — and prunes log segments it makes dead. The stamp W is read
// under cmu, so no constraint record can be mid-append (constraint
// changes log under cmu, after they are applied to the anchor). No fence
// is needed for the rows: every op with LSN <= W finished its synchronous
// applies before its LSN was assigned, and the assembly reads only
// synchronously written placements — the anchor for broadcast relations,
// the owners for partitioned ones (every member, since mid-migration
// copies are deduplicated by SaveSnapshot and the readers' view is always
// complete across the member union). Ops beyond the stamp are repaired by
// idempotent in-order replay, exactly as for a single engine. No-op on a
// non-durable router.
func (r *Router) Checkpoint() error {
	if r.wal == nil {
		return nil
	}
	r.cmu.Lock()
	lsn := r.wal.LastLSN()
	cons := r.anchor().AccessSnapshot().Constraints
	r.cmu.Unlock()
	st := r.state.Load()
	ps := r.part.Load()
	rels := make(map[string][]value.Tuple, len(r.schema))
	for _, rel := range r.schema.Relations() {
		if _, partitioned := ps.keyPos[rel]; partitioned {
			var all []value.Tuple
			for _, m := range st.members {
				rows, err := m.eng.DB().Rows(rel)
				if err != nil {
					return err
				}
				all = append(all, rows...)
			}
			rels[rel] = all
			continue
		}
		rows, err := st.members[0].eng.DB().Rows(rel)
		if err != nil {
			return err
		}
		rels[rel] = rows
	}
	return r.wal.WriteCheckpoint(lsn, func(w io.Writer) error {
		return store.SaveSnapshot(w, r.schema, cons, rels)
	})
}

// Close drains the apply queue, then flushes and closes the write-ahead
// log. Queries remain possible; further writes fail. No-op on a
// non-durable router.
func (r *Router) Close() error {
	if r.wal == nil {
		return nil
	}
	r.aq.fenceAll()
	return r.wal.Close()
}

// Health reports nil while the cluster's write pipeline is intact. A
// non-nil error is the first broadcast-apply rejection or log append/
// fsync/checkpoint failure — from then on acknowledged writes may be
// missing from some member or the log, and the process should be
// restarted (recovery replays the intact prefix). Apply errors are
// reported even on a non-durable router.
func (r *Router) Health() error {
	if err := r.aq.health(); err != nil {
		return err
	}
	if r.wal != nil {
		return r.wal.Err()
	}
	return nil
}

// DurabilityStats returns the write-ahead-log counters and ok=true when
// the router is durable.
func (r *Router) DurabilityStats() (wal.Stats, bool) {
	if r.wal == nil {
		return wal.Stats{}, false
	}
	return r.wal.Stats(), true
}

// WAL exposes the router's write-ahead log for read-side consumers (the
// replication stream endpoint). Nil when the router is not durable.
func (r *Router) WAL() *wal.Log { return r.wal }

// AddConstraints installs extra access constraints on every engine of the
// cluster, building their indices shard-locally and bumping every
// engine's version in lockstep (each engine purges its own plan cache).
// Constraints are validated against the schema up front; index builds do
// not themselves enforce bounds, so there is no data-dependent failure to
// order around. The anchor goes first — its version and access snapshot
// are the cluster's reference — and the change is logged (durable mode)
// after the anchor accepted it and before it is acknowledged. Mutations
// are serialized against each other so concurrent calls cannot skew
// versions across engines; engines a growing Reshard has published join
// the fan-out immediately. The apply queue is drained first so every
// member's index build sees every acknowledged write.
func (r *Router) AddConstraints(cs ...access.Constraint) error {
	for _, c := range cs {
		if err := c.Validate(r.schema); err != nil {
			return err
		}
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	r.aq.fenceAll()
	engs := r.shardEnginesLocked()
	if err := engs[0].AddConstraints(cs...); err != nil {
		return err
	}
	// Log after the anchor accepted (the log must only contain applicable
	// records) and before returning, so the change is durable by the time
	// it is acknowledged. cmu orders constraint records against each other
	// and against checkpoint stamps.
	if r.wal != nil {
		for _, c := range cs {
			if err := r.aq.logRecord(wal.Record{Kind: wal.KindAddConstraint, Con: c}); err != nil {
				return err
			}
		}
	}
	for _, eng := range engs[1:] {
		if err := eng.AddConstraints(cs...); err != nil {
			return fmt.Errorf("shard: cluster left inconsistent by partial constraint install: %w", err)
		}
	}
	return nil
}

// RemoveConstraint uninstalls a constraint on every engine, dropping the
// shard-local indices and bumping every version. It reports whether the
// constraint was present.
func (r *Router) RemoveConstraint(c access.Constraint) bool {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	r.aq.fenceAll()
	engs := r.shardEnginesLocked()
	found := engs[0].RemoveConstraint(c)
	if found && r.wal != nil {
		// A log failure here is retained by the queue and surfaced by
		// Health; the in-memory removal stands either way.
		_ = r.aq.logRecord(wal.Record{Kind: wal.KindRemoveConstraint, Con: c})
	}
	for _, eng := range engs[1:] {
		if eng.RemoveConstraint(c) {
			found = true
		}
	}
	return found
}

// shardEnginesLocked lists every engine a schema mutation must reach —
// the live members (anchor first) plus the members an in-flight move is
// bringing in, which must follow the schema before they serve. Callers
// must hold cmu.
func (r *Router) shardEnginesLocked() []*core.Engine {
	members := r.state.Load().members
	if mv := r.move.Load(); mv != nil {
		members = unionMembers(members, mv.new.st.members)
	}
	out := make([]*core.Engine, len(members))
	for i, m := range members {
		out[i] = m.eng
	}
	return out
}

// engines lists every member engine (plus a move's incoming ones).
func (r *Router) engines() []*core.Engine {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return r.shardEnginesLocked()
}

// AccessSnapshot returns a consistent copy of the installed access
// schema (identical on every engine of a healthy cluster), read from the
// anchor.
func (r *Router) AccessSnapshot() *access.Schema {
	return r.anchor().AccessSnapshot()
}

// Version returns the cluster's access-schema generation. All engines
// move in lockstep because every mutation fans out through the router;
// tuple movement during Reshard or Repartition never touches it.
func (r *Router) Version() uint64 { return r.anchor().Version() }

// CacheStats returns the plan-cache counters summed across every engine.
func (r *Router) CacheStats() cache.Stats {
	var out cache.Stats
	for _, eng := range r.engines() {
		out = out.Merge(eng.CacheStats())
	}
	return out
}

// SetPlanCacheCapacity resizes every engine's plan cache, dropping all
// entries; capacity <= 0 disables caching cluster-wide.
func (r *Router) SetPlanCacheCapacity(capacity int) {
	for _, eng := range r.engines() {
		eng.SetPlanCacheCapacity(capacity)
	}
}

// IVMStats returns the materialized-answer counters merged across every
// engine. Budget sums too, so it reads as the cluster-wide view capacity.
func (r *Router) IVMStats() ivm.Stats {
	var out ivm.Stats
	for _, eng := range r.engines() {
		out = out.Merge(eng.IVMStats())
	}
	return out
}

// SetIVMConfig replaces the materialization policy on every engine,
// dropping all live views; engines created by later Reshard growth
// inherit it. A config with Budget <= 0 disables incremental answer
// maintenance cluster-wide.
func (r *Router) SetIVMConfig(cfg ivm.Config) {
	r.ivmCfg.Store(&cfg)
	for _, eng := range r.engines() {
		eng.SetIVMConfig(cfg)
	}
}

// PurgeMaterializations drops every live materialized answer on every
// engine. A placement move calls it before its bulk copy phase: views
// would stay coherent through the move (its copies flow
// through the same engine write path as client writes), but paying
// per-tuple delta maintenance for a whole-slice copy is pure waste, and
// the rows land on engines whose fingerprints never earned them.
func (r *Router) PurgeMaterializations() {
	for _, eng := range r.engines() {
		eng.PurgeMaterializations()
	}
}

// DBSize returns the logical |D|: every tuple counted exactly once
// regardless of replication or in-flight migration copies. It is
// maintained by the write path (the verdict-source apply of each write),
// so it needs no fence and no engine that holds the full database.
func (r *Router) DBSize() int64 {
	var n int64
	for _, s := range r.sizes {
		n += s.Load()
	}
	return n
}

// IndexEntries returns the logical |I_A|, summed per relation from the
// engines that hold it: the anchor for broadcast relations, every member
// for partitioned ones. Stable-state slices are disjoint, so the sum is
// exact; while a migration has rows double-placed the sum can count an
// entry twice, making it a (briefly held) upper bound — acceptable for
// the observability surface it feeds.
func (r *Router) IndexEntries() int64 {
	st := r.state.Load()
	ps := r.part.Load()
	var n int64
	for _, rel := range r.schema.Relations() {
		if _, partitioned := ps.keyPos[rel]; partitioned {
			for _, m := range st.members {
				n += m.eng.DB().IndexEntriesFor(rel)
			}
			continue
		}
		n += st.members[0].eng.DB().IndexEntriesFor(rel)
	}
	return n
}

// ApplyQueueStats returns an observability snapshot of the broadcast
// apply pipeline: backlog depth (watermark lag), batching counters and
// store errors. Surfaced by GET /stats for operators watching the write
// path.
func (r *Router) ApplyQueueStats() core.ApplyQueueStats { return r.aq.stats() }

// RouteStats returns the routing-decision counters.
func (r *Router) RouteStats() core.RouteStats {
	return core.RouteStats{
		Single:    r.routed[routeSingle].Load(),
		Scattered: r.routed[routeScatter].Load(),
		Residue:   r.routed[routeResidue].Load(),
	}
}

// ResidueStats returns the residue-execution counters.
func (r *Router) ResidueStats() core.ResidueStats {
	ps := r.part.Load()
	return core.ResidueStats{
		BroadcastRels: len(r.schema.Relations()) - len(ps.keys),
		Repartitions:  r.resRepartitions.Load(),
		BytesShipped:  r.resBytesShipped.Load(),
		Evaluated:     r.resEvaluated.Load(),
	}
}

// RouteKind reports the strategy Execute would pick for q right now:
// "single", "scatter" or "residue". Exposed for workload tooling
// (internal/bench) that wants to classify candidate queries without
// executing them.
func (r *Router) RouteKind(q ra.Query) (string, error) {
	norm, err := ra.Normalize(q, r.schema)
	if err != nil {
		return "", err
	}
	st := r.state.Load()
	dec := r.route(norm, ra.KeyOf(norm), st.ring, len(st.members), r.part.Load())
	switch dec.kind {
	case routeSingle:
		return "single", nil
	case routeScatter:
		return "scatter", nil
	default:
		return "residue", nil
	}
}

// Stats returns the cluster's observability snapshot: the logical
// sizes, summed plan-cache and IVM counters, the log block when durable,
// and the router's own blocks — one entry per member engine (live shards
// labeled "shard/i" in order; comparing Queries across them exposes
// routing skew, comparing DBSize data skew), the ring, the apply queue,
// routing decisions and residue work.
func (r *Router) Stats() core.Stats {
	// Sample the apply queue before the size reads, so Depth is the
	// backlog as the call found it: the reads below take engine and store
	// locks while the applier keeps draining.
	apply := r.ApplyQueueStats()
	routes := r.RouteStats()
	residue := r.ResidueStats()
	st := core.Stats{
		Cache:        r.CacheStats(),
		DBSize:       r.DBSize(),
		IndexEntries: r.IndexEntries(),
		Version:      r.Version(),
		Executor:     exec.ReadCounters(),
		Ring:         r.ringStatus(),
		Apply:        &apply,
		Routes:       &routes,
		Residue:      &residue,
	}
	for i, m := range r.state.Load().members {
		st.Shards = append(st.Shards, core.ShardStats{
			Label:        fmt.Sprintf("shard/%d", i),
			Queries:      m.queries.Load(),
			Cache:        m.eng.CacheStats(),
			DBSize:       m.eng.DBSize(),
			IndexEntries: m.eng.IndexEntries(),
			Version:      m.eng.Version(),
		})
	}
	if iv := r.IVMStats(); iv.Budget > 0 {
		st.IVM = &iv
	}
	if ws, ok := r.DurabilityStats(); ok {
		st.Durability = &ws
	}
	return st
}

// String summarizes the partitioning for logs and tools.
func (r *Router) String() string {
	ps := r.part.Load()
	rels := make([]string, 0, len(ps.keys))
	for rel, key := range ps.keys {
		rels = append(rels, rel+"/"+key)
	}
	sort.Strings(rels)
	st := r.state.Load()
	return fmt.Sprintf("shard.Router{shards: %d, epoch: %d, partitioned: %v}",
		len(st.members), st.epoch, rels)
}
