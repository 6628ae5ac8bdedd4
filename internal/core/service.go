package core

import (
	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// Service is the minimal serving surface of the bounded-evaluation layer:
// everything a front end (internal/server) or a replay harness
// (internal/bench) needs to parse, execute, mutate and observe. A single
// *Engine implements it directly; the sharded router (internal/shard)
// implements it over N engines and the follower node (internal/follower)
// over a local replica, so callers serve a cluster, a replica and a single
// engine through the same code path.
//
// Observation is two methods. Stats returns the service's whole part of
// GET /stats as one tree; which optional blocks are set depends on the
// implementation (see Stats). Health reports the first retained failure
// of the write pipeline, nil while it is intact.
//
// Implementations must be safe for concurrent use and must preserve the
// serving-layer invariant: Insert and Delete keep cached plans valid
// (Version does not change), while access-schema mutations bump Version
// and invalidate cached plans atomically.
type Service interface {
	// Schema returns the relational schema the service is bound to. The
	// returned map is shared and must be treated as read-only.
	Schema() ra.Schema
	// Parse parses a query in the textual rule language.
	Parse(src string) (ra.Query, error)
	// Execute runs the full pipeline on q and returns the answer.
	Execute(q ra.Query, opts Options) (*exec.Table, *Report, error)
	// Insert adds a tuple, maintaining indices incrementally.
	Insert(rel string, t value.Tuple) (bool, error)
	// Delete removes a tuple, maintaining indices incrementally.
	Delete(rel string, t value.Tuple) (bool, error)
	// AddConstraints installs extra access constraints, building their
	// indices and bumping Version.
	AddConstraints(cs ...access.Constraint) error
	// RemoveConstraint uninstalls a constraint (and its index), bumping
	// Version; it reports whether the constraint was present.
	RemoveConstraint(c access.Constraint) bool
	// AccessSnapshot returns a consistent copy of the installed access
	// schema.
	AccessSnapshot() *access.Schema
	// Version returns the access-schema generation counter.
	Version() uint64
	// CacheStats returns plan-cache counters (aggregated, for a cluster).
	CacheStats() cache.Stats
	// SetPlanCacheCapacity resizes the plan cache(s), dropping entries;
	// capacity <= 0 disables caching.
	SetPlanCacheCapacity(capacity int)
	// DBSize returns |D|, the logical number of stored tuples (counting
	// replicated copies once).
	DBSize() int64
	// IndexEntries returns |I_A|, the logical number of index entries.
	IndexEntries() int64
	// Stats returns the service's observability snapshot, assembled once
	// by the implementation.
	Stats() Stats
	// Health returns nil while the write pipeline is intact; otherwise the
	// first retained failure (log append, fsync or checkpoint; broadcast
	// apply; a follower's lost primary).
	Health() error
}

// Stats is the service-owned part of GET /stats: one tree whose JSON form
// is the document the front end serves (internal/server adds its own
// request accounting next to it). Every block is the owning layer's own
// snapshot type; derived figures (hit rates, means) are computed where
// the snapshot is taken. A nil block is absent from the document:
//
//   - IVM is nil when materialized answers are disabled (budget 0);
//   - Durability is nil unless the service logs to a write-ahead log;
//   - Shards, Ring, Apply, Routes and Residue are set only by the sharded
//     router (internal/shard);
//   - Follower is set only by a follower node (internal/follower).
type Stats struct {
	// Cache is the plan-cache counter snapshot (summed across engines
	// behind a router).
	Cache cache.Stats `json:"cache"`
	// DBSize is total tuples across base relations; IndexEntries total
	// entries across the indices I_A. Behind a sharded router these are
	// logical sizes (each broadcast copy counted once) while the Shards
	// breakdown reports physical per-engine sizes.
	DBSize       int64 `json:"dbSize"`
	IndexEntries int64 `json:"indexEntries"`
	// Version is the access-schema generation.
	Version uint64 `json:"version"`
	// Shards is the per-engine breakdown of a sharded cluster. Operators
	// read it for routing and data skew.
	Shards []ShardStats `json:"shards,omitempty"`
	// Ring is the consistent-hash placement state of a sharded cluster.
	Ring *RingStatus `json:"ring,omitempty"`
	// Apply is the broadcast apply-queue snapshot of a sharded cluster,
	// sampled before the size reads of the same snapshot.
	Apply *ApplyQueueStats `json:"apply,omitempty"`
	// Routes is the routing-decision breakdown of a sharded cluster.
	Routes *RouteStats `json:"routes,omitempty"`
	// Residue is the residue-route breakdown of a sharded cluster.
	Residue *ResidueStats `json:"residue,omitempty"`
	// Durability is the write-ahead-log snapshot of a durable service.
	Durability *wal.Stats `json:"durability,omitempty"`
	// IVM is the materialized-answer snapshot (summed across engines
	// behind a router).
	IVM *ivm.Stats `json:"ivm,omitempty"`
	// Executor is the vectorized executor's process-wide telemetry.
	// Always present: every answer flows through the executor.
	Executor exec.Counters `json:"executor"`
	// Follower is the replica-side view of a follower node.
	Follower *FollowerStats `json:"follower,omitempty"`
}

// ShardStats is one engine of a sharded cluster in Stats.Shards.
type ShardStats struct {
	// Label identifies the engine: "shard/0" … "shard/N-1".
	Label string `json:"label"`
	// Queries counts query executions routed to this engine (including
	// the fetch batches and scans of residue routes).
	Queries int64 `json:"queries"`
	// Cache is the engine's own plan-cache counters.
	Cache cache.Stats `json:"cache"`
	// DBSize and IndexEntries are the engine-local physical sizes.
	DBSize       int64 `json:"dbSize"`
	IndexEntries int64 `json:"indexEntries"`
	// Version is the engine's access-schema generation; all engines of a
	// healthy cluster report the same value.
	Version uint64 `json:"version"`
}

// RingStatus is the observable placement state of a sharded cluster: the
// epoch and size of the live ring, and the in-flight move when a reshard
// or repartition is running.
type RingStatus struct {
	// Epoch is the current ring epoch (starts at 1, +1 per flip).
	Epoch uint64 `json:"epoch"`
	// Shards is the live partition count; Vnodes the virtual nodes per
	// shard on the ring.
	Shards int `json:"shards"`
	Vnodes int `json:"vnodes"`
	// Migration is nil when the cluster is stable.
	Migration *MigrationProgress `json:"migration,omitempty"`
}

// MigrationProgress describes an in-flight placement move — a reshard or
// a repartition, automatic demotions included.
type MigrationProgress struct {
	// From and To are the shard counts the move is between (equal for a
	// repartition).
	From int `json:"from"`
	To   int `json:"to"`
	// Rel is the relation a repartition is moving; empty for a reshard,
	// which moves every relation.
	Rel string `json:"rel,omitempty"`
	// Phase is "copy" (streaming, old assignment serving), "cleanup"
	// (flipped, sweeping stragglers) or "abort" (rolling back).
	Phase string `json:"phase"`
	// Moved counts row copies streamed so far out of an estimated Total
	// (the move plan measured at start; concurrent writes can drift it).
	Moved int64 `json:"moved"`
	Total int64 `json:"total"`
}

// ApplyQueueStats is an observability snapshot of a sharded cluster's
// broadcast apply pipeline, the asynchronous per-relation queue that
// batches broadcast copies onto non-anchor shards.
type ApplyQueueStats struct {
	// Enqueued counts broadcast copy-ops accepted since the router was
	// built; Applied is how many have reached all their target engines.
	// Their difference is Depth, the current backlog across all lanes.
	Enqueued int64 `json:"enqueued"`
	Applied  int64 `json:"applied"`
	Depth    int64 `json:"depth"`
	// Batches counts batched store applications — engine write-lock
	// acquisitions. Enqueued/Batches is the realized coalescing factor.
	Batches int64 `json:"batches"`
	// MaxBatch is the largest batch applied so far.
	MaxBatch int64 `json:"maxBatch"`
	// Errors counts batch applications in which the store rejected at
	// least one op. Writes are validated before they are enqueued, so a
	// non-zero value indicates a bug.
	Errors int64 `json:"errors"`
}

// RouteStats counts a sharded cluster's routing decisions since the
// router was built.
type RouteStats struct {
	// Single counts queries answered by exactly one shard (unpartitioned
	// queries and the covered-access fast path).
	Single int64 `json:"single"`
	// Scattered counts scatter/gather executions (each runs on every
	// shard).
	Scattered int64 `json:"scattered"`
	// Residue counts residue-routed executions — queries whose shape
	// neither single-shards nor scatters as a whole.
	Residue int64 `json:"residue"`
}

// ResidueStats counts the work of a sharded cluster's residue routes and
// placement migrator. Operators read it to size the broadcast set and to
// see how much row volume uncovered residue queries would ship in a
// multi-node deployment.
type ResidueStats struct {
	// BroadcastRels is the number of relations currently broadcast to
	// every shard (the non-partitioned set).
	BroadcastRels int `json:"broadcastRels"`
	// Repartitions counts completed placement changes (Repartition calls
	// and automatic demotions).
	Repartitions int64 `json:"repartitions"`
	// BytesShipped is the encoded size of the rows routed scans returned
	// to the router: what the baseline's scans would put on the wire in a
	// multi-node deployment. Covered routes' fetches are not counted.
	BytesShipped int64 `json:"bytesShipped"`
	// Evaluated counts residue-routed queries answered by the baseline
	// over routed scans: uncovered queries under
	// Options.FallbackToBaseline. Covered ones run their bounded plan over
	// routed fetches instead.
	Evaluated int64 `json:"evaluated"`
}

// FollowerStats is the replica-side replication view of a follower node.
type FollowerStats struct {
	// Primary is the URL this node replicates from; ID the identity it
	// streams under.
	Primary string `json:"primary"`
	ID      string `json:"id"`
	// AppliedLSN is the local applied watermark; PrimaryLSN the last LSN
	// the primary reported (via records or heartbeats). Their difference
	// is the replica lag in records.
	AppliedLSN uint64 `json:"appliedLSN"`
	PrimaryLSN uint64 `json:"primaryLSN"`
	// Streaming reports a live stream connection; LastContactSeconds is
	// the time since the last frame (records and heartbeats alike).
	Streaming          bool    `json:"streaming"`
	LastContactSeconds float64 `json:"lastContactSeconds"`
	// RecordsApplied counts records applied since this process started;
	// Reconnects counts stream (re)connections; SnapshotsFetched counts
	// checkpoint bootstraps (0 after a restart that resumed locally).
	RecordsApplied   int64 `json:"recordsApplied"`
	Reconnects       int64 `json:"reconnects"`
	SnapshotsFetched int64 `json:"snapshotsFetched"`
}

// Engine implements Service.
var _ Service = (*Engine)(nil)

// Schema returns the relational schema the engine is bound to. The
// returned map is shared and must be treated as read-only.
func (e *Engine) Schema() ra.Schema { return e.schema }

// DB returns the underlying database instance. It is exposed for loaders,
// experiments and tests; going around the engine for index topology
// changes requires InvalidatePlans.
func (e *Engine) DB() *store.DB { return e.db }

// DBSize returns |D|: the total number of stored tuples.
func (e *Engine) DBSize() int64 { return e.db.Size() }

// IndexEntries returns |I_A|: the total number of index entries.
func (e *Engine) IndexEntries() int64 { return e.db.IndexEntries() }

// Stats returns the engine's observability snapshot: plan cache, sizes,
// version and executor counters, plus the IVM block when materialized
// answers are enabled and the durability block when the engine logs.
func (e *Engine) Stats() Stats {
	st := Stats{
		Cache:        e.CacheStats(),
		DBSize:       e.DBSize(),
		IndexEntries: e.IndexEntries(),
		Version:      e.Version(),
		Executor:     exec.ReadCounters(),
	}
	if iv := e.IVMStats(); iv.Budget > 0 {
		st.IVM = &iv
	}
	if e.wal != nil {
		ws := e.wal.Stats()
		st.Durability = &ws
	}
	return st
}
