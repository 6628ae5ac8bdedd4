package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/value"
)

// QueryRequest is the body of POST /query. Query is a query in the rule
// language of internal/parser; the remaining fields tune execution the way
// core.Options does, starting from the engine's defaults.
type QueryRequest struct {
	// Query is the query text, e.g.
	// "q(cid) :- friend(0,f), dine(f,cid), cafe(cid,'nyc')".
	Query string `json:"query"`
	// NoCache bypasses the plan cache for this request: the full analysis
	// pipeline runs even for a previously seen query.
	NoCache bool `json:"noCache,omitempty"`
	// MaxRows caps the number of rows returned (0 = the server's default;
	// negative = unlimited). RowCount always reports the full answer size.
	MaxRows int `json:"maxRows,omitempty"`
	// MinLSN is the read-your-writes fence for follower reads: the query
	// blocks until the server's applied watermark reaches this LSN (504 if
	// the deadline passes first). Clients stamp the LSN returned by their
	// last mutation. Ignored by a primary, which assigned the LSN and
	// trivially satisfies the fence.
	MinLSN uint64 `json:"minLSN,omitempty"`
}

// QueryResponse is the answer to POST /query: the result rows plus the
// plan/cache/boundedness metadata of core.Report.
type QueryResponse struct {
	// Columns and Rows are the result table. Values encode kind-faithfully:
	// Int as a JSON number, Str as a JSON string, Null as null.
	Columns []string      `json:"columns"`
	Rows    [][]wireValue `json:"rows"`
	// RowCount is the full answer cardinality; Truncated reports that Rows
	// was capped below it by MaxRows.
	RowCount  int  `json:"rowCount"`
	Truncated bool `json:"truncated,omitempty"`

	// Canonical is the canonical form of the query rendered back into rule
	// syntax (the plan-cache identity), when it is expressible there.
	Canonical string `json:"canonical,omitempty"`

	// Covered / Rewritten / Bounded / CacheHit mirror core.Report: whether
	// the (possibly rewritten) query is covered by the access schema,
	// whether covered-form rewriting changed it, whether the bounded
	// evaluator ran (false = conventional fallback), and whether the
	// compile artifact came from the plan cache.
	Covered      bool     `json:"covered"`
	Rewritten    bool     `json:"rewritten,omitempty"`
	RewriteRules []string `json:"rewriteRules,omitempty"`
	Bounded      bool     `json:"bounded"`
	CacheHit     bool     `json:"cacheHit"`
	// Materialized reports that the answer was served from an
	// incrementally maintained materialization (no plan ran at all);
	// always paired with CacheHit.
	Materialized bool `json:"materialized,omitempty"`
	// PlanLength is the number of bounded plan steps (0 on the fallback).
	PlanLength int `json:"planLength,omitempty"`

	// Accessed / Fetched / Scanned count tuples read during evaluation,
	// split by access path; ElapsedMicros is evaluation wall time and
	// CompileMicros the analysis time (0 on a cache hit).
	Accessed      int64 `json:"accessed"`
	Fetched       int64 `json:"fetched,omitempty"`
	Scanned       int64 `json:"scanned,omitempty"`
	ElapsedMicros int64 `json:"elapsedMicros"`
	CompileMicros int64 `json:"compileMicros,omitempty"`

	// Version is the engine's access-schema generation the execution ran
	// under, read while the engine lock was held (core.Report.Version) —
	// a CacheHit response always carries the version its plan was
	// compiled at.
	Version uint64 `json:"version"`
}

// MutateRequest is the body of POST /insert and POST /delete: a batch of
// tuples for one relation. Tuple values follow the wire encoding of
// QueryResponse rows (numbers, strings, null).
type MutateRequest struct {
	Relation string        `json:"relation"`
	Tuples   [][]wireValue `json:"tuples"`
}

// MutateResponse reports a mutation batch. Applied counts tuples actually
// inserted (new) or deleted (present); set semantics make re-inserting an
// existing tuple or deleting an absent one a no-op counted only in
// Requested. Version is the engine's current access-schema generation;
// tuple writes themselves never advance it — cached plans stay valid
// under them (Proposition 12) — so it moves only if a constraint change
// lands concurrently.
type MutateResponse struct {
	Relation  string `json:"relation"`
	Requested int    `json:"requested"`
	Applied   int    `json:"applied"`
	Version   uint64 `json:"version"`
	// LSN is the write-ahead-log position after this batch on a durable
	// serving layer (0 otherwise). A client that stamps it as MinLSN on a
	// follower read is guaranteed to observe the batch.
	LSN uint64 `json:"lsn,omitempty"`
}

// WALAckRequest is the body of POST /wal/ack: a follower reporting its
// applied watermark for the primary's replication /stats block.
type WALAckRequest struct {
	// ID is the follower's stable identity (the id it streams under).
	ID string `json:"id"`
	// LSN is the follower's applied watermark.
	LSN uint64 `json:"lsn"`
}

// WireConstraint is the JSON form of an access constraint R(X → Y, N).
type WireConstraint struct {
	Rel string   `json:"rel"`
	X   []string `json:"x"`
	Y   []string `json:"y"`
	N   int      `json:"n"`
}

// SchemaResponse is the answer to GET /schema: the relational schema and
// the current access schema.
type SchemaResponse struct {
	// Relations maps base relation name to attribute names in order.
	Relations map[string][]string `json:"relations"`
	// Constraints is the installed access schema.
	Constraints []WireConstraint `json:"constraints"`
	Version     uint64           `json:"version"`
}

// CacheStatsWire is the JSON form of the plan-cache counters.
type CacheStatsWire struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Purges    int64   `json:"purges"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hitRate"`
}

// StatsResponse is the answer to GET /stats: plan-cache counters, database
// and index sizes, and the server's own request accounting.
type StatsResponse struct {
	Cache CacheStatsWire `json:"cache"`
	// DBSize is total tuples across base relations; IndexEntries total
	// entries across the indices I_A. Behind a sharded router these are
	// logical sizes (each broadcast copy counted once) while the Shards
	// breakdown reports physical per-engine sizes.
	DBSize       int64  `json:"dbSize"`
	IndexEntries int64  `json:"indexEntries"`
	Version      uint64 `json:"version"`
	// Requests counts HTTP requests served since start; InFlight is the
	// number of /query executions currently running.
	Requests      int64   `json:"requests"`
	InFlight      int64   `json:"inFlight"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Shards is the per-engine breakdown when the served core.Service is a
	// sharded cluster (absent for a single engine). Operators read it for
	// routing and data skew: Queries counts the queries each engine
	// executed (a scatter counts on every shard it touched).
	Shards []ShardStatsWire `json:"shards,omitempty"`
	// Ring is the consistent-hash placement state (epoch, size, in-flight
	// migration), present only for a sharded cluster.
	Ring *RingStatsWire `json:"ring,omitempty"`
	// Apply is the apply-queue snapshot (asynchronous broadcast write
	// backlog and batching), present only for a sharded cluster.
	Apply *ApplyStatsWire `json:"apply,omitempty"`
	// Routes is the routing-decision breakdown, present only for a sharded
	// cluster.
	Routes *RouteStatsWire `json:"routes,omitempty"`
	// Residue is the distributed residue-executor breakdown (semi-joins,
	// shuffles, placement changes), present only for a sharded cluster.
	Residue *ResidueStatsWire `json:"residue,omitempty"`
	// Durability is the write-ahead-log snapshot, present only when the
	// serving layer was started durable (-data-dir).
	Durability *DurabilityWire `json:"durability,omitempty"`
	// IVM is the materialized-answer snapshot (incremental view
	// maintenance for hot fingerprints); absent when disabled. Behind a
	// sharded router the counters are summed across engines.
	IVM *IVMStatsWire `json:"ivm,omitempty"`
	// Executor is the vectorized execution core's process-wide telemetry
	// (batch volume, arena pooling, join signature pre-filter). Always
	// present: every answer flows through the executor.
	Executor ExecStatsWire `json:"executor"`
	// Replication is the primary-side follower accounting (connected
	// followers, acked LSNs, lag), present once a follower has connected
	// to or bootstrapped from this durable serving layer.
	Replication *ReplicationWire `json:"replication,omitempty"`
	// Follower is the replica-side view when the served core.Service is a
	// follower node: where it replicates from and how far it has applied.
	Follower *FollowerStatsWire `json:"follower,omitempty"`
}

// ExecStatsWire is the executor block in GET /stats: process-wide
// counters of the vectorized execution core (internal/exec), read with
// one atomic load each. All counters are monotonic since process start.
type ExecStatsWire struct {
	// Batches counts operator output tables finalized; Rows the rows
	// across them; RowsPerBatch their ratio (the mean batch width an
	// operator hands downstream).
	Batches      int64   `json:"batches"`
	Rows         int64   `json:"rows"`
	RowsPerBatch float64 `json:"rowsPerBatch"`
	// ArenaGets counts arena checkouts (one per evaluation per worker),
	// ArenaNews the subset that missed the sync.Pool and built a fresh
	// arena, PoolHitRate 1 - News/Gets, and ArenaBytes the memory
	// currently retained by checked-out arenas.
	ArenaGets   int64   `json:"arenaGets"`
	ArenaNews   int64   `json:"arenaNews"`
	PoolHitRate float64 `json:"poolHitRate"`
	ArenaBytes  int64   `json:"arenaBytes"`
	// SigBuilt counts join signature pre-filters built; SigHit the probes
	// they rejected before the hash table; SigMiss the probes passed
	// through. Hit/(Hit+Miss) is the filter's selectivity on this
	// workload.
	SigBuilt int64 `json:"sigBuilt"`
	SigHit   int64 `json:"sigHit"`
	SigMiss  int64 `json:"sigMiss"`
}

// ReplicationWire is the primary-side replication block in GET /stats.
type ReplicationWire struct {
	// Followers lists every follower that has connected (or acked) since
	// start, by id.
	Followers []FollowerConnWire `json:"followers"`
	// SnapshotsServed counts checkpoint downloads from /wal/snapshot —
	// follower bootstraps (a resuming follower downloads nothing).
	SnapshotsServed int64 `json:"snapshotsServed"`
}

// FollowerConnWire is one follower's entry in the replication block.
type FollowerConnWire struct {
	// ID is the identity the follower presented on /wal/stream.
	ID string `json:"id"`
	// Connected reports a live stream; SentLSN is the last record written
	// to it and AckedLSN the follower's last reported applied watermark.
	Connected bool   `json:"connected"`
	SentLSN   uint64 `json:"sentLSN"`
	AckedLSN  uint64 `json:"ackedLSN"`
	// LagRecords is the primary's last LSN minus AckedLSN; LagBytes is a
	// segment-granularity upper bound on the unacked log bytes. Alert on
	// sustained growth of either (see docs/OPERATIONS.md).
	LagRecords int64 `json:"lagRecords"`
	LagBytes   int64 `json:"lagBytes"`
	// ConnectedSeconds is the current stream's age (connected followers);
	// LastSeenSeconds the time since the follower was last heard from
	// (disconnected ones).
	ConnectedSeconds float64 `json:"connectedSeconds,omitempty"`
	LastSeenSeconds  float64 `json:"lastSeenSeconds,omitempty"`
}

// FollowerStatsWire is the follower-side replication block in GET /stats
// of a follower node.
type FollowerStatsWire struct {
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

// IVMStatsWire is the materialized-answer snapshot in GET /stats.
type IVMStatsWire struct {
	// Materialized is the number of live views; Budget the configured
	// ceiling (summed across engines on a sharded cluster).
	Materialized int `json:"materialized"`
	Budget       int `json:"budget"`
	// Admitted / Evicted / Purged count view lifecycle events; Rejected
	// counts candidates the admission gate kept out of a full budget
	// because they were worth less than twice the view they would evict.
	Admitted int64 `json:"admitted"`
	Evicted  int64 `json:"evicted,omitempty"`
	Purged   int64 `json:"purged,omitempty"`
	Rejected int64 `json:"rejected"`
	// Hits counts answers served straight from a view; DeltaApplies
	// counts tuple writes folded into views.
	Hits         int64 `json:"hits"`
	DeltaApplies int64 `json:"deltaApplies"`
	// Fallbacks counts views dropped on an inapplicable delta; Denied
	// counts rejected materialization attempts.
	Fallbacks int64 `json:"fallbacks,omitempty"`
	Denied    int64 `json:"denied,omitempty"`
	// SeedFetched / SeedScanned count the tuples view construction read
	// through access-schema indices and through relation scans: admissions
	// are bounded while the second stays small next to the first.
	// BuildMicros is the total time constructions held the materialization
	// fence — the time tuple writes were stalled behind admissions.
	SeedFetched int64 `json:"seedFetched"`
	SeedScanned int64 `json:"seedScanned"`
	BuildMicros int64 `json:"buildMicros"`
}

// DurabilityWire is the write-ahead-log snapshot in GET /stats of a
// durable serving layer.
type DurabilityWire struct {
	// LastLSN is the highest log sequence number assigned; CheckpointLSN
	// the LSN the latest durable checkpoint covers. Their difference is
	// the replay debt a crash right now would pay.
	LastLSN       uint64 `json:"lastLSN"`
	CheckpointLSN uint64 `json:"checkpointLSN"`
	// Segments and SegmentBytes describe the live log files on disk.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segmentBytes"`
	// Appends counts records logged since open; Checkpoints the
	// checkpoints written since open.
	Appends     int64 `json:"appends"`
	Checkpoints int64 `json:"checkpoints"`
	// Fsync is the configured sync policy ("off", "interval", "commit");
	// Fsyncs counts fsync calls on the append path and FsyncMeanMicros is
	// their observed mean latency.
	Fsync           string  `json:"fsync"`
	Fsyncs          int64   `json:"fsyncs"`
	FsyncMeanMicros float64 `json:"fsyncMeanMicros"`
}

// ApplyStatsWire is the apply-queue snapshot in GET /stats: the
// asynchronous per-relation write pipeline that batches broadcast
// applications onto non-anchor shards (internal/shard). Sampled before
// the fencing reads of the same /stats response, so Depth reflects the
// backlog at request arrival.
type ApplyStatsWire struct {
	// Enqueued counts asynchronous writes accepted since start; Applied is
	// the watermark (writes that have reached every target engine); Depth
	// is their difference — the current watermark lag in ops.
	Enqueued int64 `json:"enqueued"`
	Applied  int64 `json:"applied"`
	Depth    int64 `json:"depth"`
	// Batches counts batched applications (one engine write-lock
	// acquisition each); MaxBatch is the largest batch so far.
	Batches  int64 `json:"batches"`
	MaxBatch int64 `json:"maxBatch"`
	// Errors counts batch applications a target store rejected (at least
	// one op failed); non-zero indicates a bug, since writes are validated
	// on the anchor before they are enqueued.
	Errors int64 `json:"errors"`
}

// RouteStatsWire is the routing-decision breakdown in GET /stats.
type RouteStatsWire struct {
	// Single counts single-shard executions; Scattered full
	// scatter/gather executions; Residue residue-routed executions.
	Single    int64 `json:"single"`
	Scattered int64 `json:"scattered"`
	Residue   int64 `json:"residue"`
}

// ResidueStatsWire is the distributed residue-executor breakdown in GET
// /stats. Operators read it to size the broadcast set and to see how much
// row volume non-distributable joins would ship in a multi-node
// deployment.
type ResidueStatsWire struct {
	// SemiJoins counts semi-join reductions performed; Shuffles the hash
	// shuffles that followed them.
	SemiJoins int64 `json:"semiJoins"`
	Shuffles  int64 `json:"shuffles"`
	// BroadcastRels is the number of relations currently placed by
	// broadcast (full copy on every shard).
	BroadcastRels int `json:"broadcastRels"`
	// Repartitions counts completed online placement changes (including
	// automatic demotions of overgrown broadcast relations).
	Repartitions int64 `json:"repartitions"`
	// BytesShipped is the encoded row volume handed to shuffle buckets —
	// the traffic the shuffles would put on the wire across nodes.
	BytesShipped int64 `json:"bytesShipped"`
	// Evaluated counts residue-routed queries answered by the conventional
	// evaluator instead of a bounded plan: uncovered queries admitted by
	// the baseline fallback.
	Evaluated int64 `json:"evaluated"`
}

// ShardStatsWire is one engine of a sharded cluster in GET /stats.
type ShardStatsWire struct {
	// Label identifies the engine: "shard/0" … "shard/N-1".
	Label string `json:"label"`
	// Queries counts query executions routed to this engine.
	Queries int64 `json:"queries"`
	// Cache is the engine's own plan-cache counters.
	Cache CacheStatsWire `json:"cache"`
	// DBSize and IndexEntries are the engine-local physical sizes.
	DBSize       int64 `json:"dbSize"`
	IndexEntries int64 `json:"indexEntries"`
	// Version is the engine's access-schema generation; all engines of a
	// healthy cluster report the same value.
	Version uint64 `json:"version"`
}

// ReshardRequest is the body of POST /reshard: change the live shard
// count of a sharded serving layer online.
type ReshardRequest struct {
	// Shards is the target partition count (>= 1).
	Shards int `json:"shards"`
	// Wait blocks the request until the move completes and reports the
	// full ReshardResponse; without it the server answers 202 immediately
	// and the migration runs in the background (progress via GET /stats).
	Wait bool `json:"wait,omitempty"`
}

// ReshardResponse reports a reshard. A waited call carries the full
// accounting; an accepted background call sets Accepted and To only.
type ReshardResponse struct {
	// Accepted is true for a background (non-wait) call that was started.
	Accepted bool `json:"accepted,omitempty"`
	// From and To are the shard counts before and after the move.
	From int `json:"from,omitempty"`
	To   int `json:"to"`
	// Moved counts keyed rows that changed owner; Seeded counts
	// broadcast row copies streamed onto engines created by growth.
	Moved  int64 `json:"moved,omitempty"`
	Seeded int64 `json:"seeded,omitempty"`
	// Epoch is the ring epoch after the flip.
	Epoch uint64 `json:"epoch,omitempty"`
	// DurationMicros is the wall time of the whole move.
	DurationMicros int64 `json:"durationMicros,omitempty"`
}

// MigrationWire is an in-flight placement move — a reshard or a
// repartition, automatic demotions included — in GET /stats.
type MigrationWire struct {
	// From and To are the shard counts the move is between (equal for a
	// repartition).
	From int `json:"from"`
	To   int `json:"to"`
	// Rel is the relation a repartition is moving; absent for a reshard,
	// which moves every relation.
	Rel string `json:"rel,omitempty"`
	// Phase is "copy" (streaming, old assignment serving), "cleanup"
	// (flipped, sweeping stragglers) or "abort" (rolling back).
	Phase string `json:"phase"`
	// Moved counts rows streamed so far out of an estimated Total.
	Moved int64 `json:"moved"`
	Total int64 `json:"total"`
}

// RingStatsWire is the consistent-hash placement state in GET /stats.
type RingStatsWire struct {
	// Epoch is the ring generation (starts at 1, +1 per completed
	// reshard).
	Epoch uint64 `json:"epoch"`
	// Shards is the live partition count; Vnodes the virtual nodes each
	// shard contributes to the ring.
	Shards int `json:"shards"`
	Vnodes int `json:"vnodes"`
	// Migration is present only while a reshard or repartition is in
	// flight.
	Migration *MigrationWire `json:"migration,omitempty"`
}

// HealthResponse is the answer to GET /healthz: Status "ok" (200), or
// "degraded" (503) when the serving layer's write pipeline has failed —
// Error then carries the first retained failure. A degraded durable
// server may be missing acknowledged writes from its log and should be
// restarted so recovery can replay the intact prefix.
type HealthResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// wireValue adapts value.Value to its JSON wire form: Int ↔ JSON number,
// Str ↔ JSON string, Null ↔ null. Decoding goes through json.Number so
// 64-bit integers round-trip without float64 precision loss.
type wireValue struct {
	v value.Value
}

// MarshalJSON encodes the wrapped value kind-faithfully.
func (w wireValue) MarshalJSON() ([]byte, error) {
	switch w.v.K {
	case value.Int:
		return json.Marshal(w.v.I)
	case value.Str:
		return json.Marshal(w.v.S)
	default:
		return []byte("null"), nil
	}
}

// UnmarshalJSON decodes a JSON scalar into a value.Value.
func (w *wireValue) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	switch t := raw.(type) {
	case nil:
		w.v = value.Value{}
	case string:
		w.v = value.NewStr(t)
	case json.Number:
		i, err := t.Int64()
		if err != nil {
			return fmt.Errorf("server: non-integer number %q in tuple", t.String())
		}
		w.v = value.NewInt(i)
	case bool:
		return fmt.Errorf("server: boolean values are not part of the data model")
	default:
		return fmt.Errorf("server: value must be a number, string or null, got %T", raw)
	}
	return nil
}

// encodeTuple converts a store tuple to its wire form.
func encodeTuple(t value.Tuple) []wireValue {
	out := make([]wireValue, len(t))
	for i, v := range t {
		out[i] = wireValue{v}
	}
	return out
}

// decodeTuple converts a wire tuple back to a store tuple.
func decodeTuple(ws []wireValue) value.Tuple {
	out := make(value.Tuple, len(ws))
	for i, w := range ws {
		out[i] = w.v
	}
	return out
}
