package server

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
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

// StatsResponse is the answer to GET /stats: the served core.Service's
// own stats tree (core.Stats, whose fields appear at the top level of the
// document) plus the server's request accounting and, on a durable
// primary, its follower accounting. Each block is documented on its
// owning type: cache.Stats, exec.Counters, ivm.Stats, wal.Stats and the
// router and follower blocks in internal/core.
type StatsResponse struct {
	core.Stats
	// Requests counts HTTP requests served since start; InFlight is the
	// number of /query executions currently running.
	Requests      int64   `json:"requests"`
	InFlight      int64   `json:"inFlight"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Replication is the primary-side follower accounting (connected
	// followers, acked LSNs, lag), present once a follower has connected
	// to or bootstrapped from this durable serving layer.
	Replication *ReplicationWire `json:"replication,omitempty"`
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
// Str ↔ JSON string, Null ↔ null. Integers are parsed from their literal
// text, so 64-bit values round-trip without float64 precision loss.
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

// UnmarshalJSON decodes a JSON scalar into a value.Value, dispatching on
// the first byte of the literal encoding/json hands it (one syntactically
// valid value, no surrounding space): null, a string (unescaped by
// encoding/json), a boolean or composite (rejected), else a number, which
// must be an integer literal in int64 range — 1e3, 1.0 and 2^63 are
// rejected, as the data model has no floats.
func (w *wireValue) UnmarshalJSON(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("server: empty value in tuple")
	}
	switch b[0] {
	case 'n':
		if string(b) != "null" {
			return fmt.Errorf("server: invalid value %q in tuple", b)
		}
		w.v = value.Value{}
	case '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		w.v = value.NewStr(s)
	case 't', 'f':
		return fmt.Errorf("server: boolean values are not part of the data model")
	case '{', '[':
		return fmt.Errorf("server: value must be a number, string or null, got %s", b[:1])
	default:
		i, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return fmt.Errorf("server: non-integer number %q in tuple", b)
		}
		w.v = value.NewInt(i)
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
