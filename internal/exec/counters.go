package exec

import "sync/atomic"

// Process-wide executor telemetry, surfaced by /stats (internal/server).
// The counters are monotonic atomics updated on the hot path with one add
// per batch or probe, never per row of a loop body.
var (
	cBatches    atomic.Int64 // batches (operator output tables) finalized
	cBatchRows  atomic.Int64 // rows across those batches
	cArenaGet   atomic.Int64 // arena checkouts (requests served)
	cArenaNew   atomic.Int64 // pool misses that built a fresh arena
	cArenaInUse atomic.Int64 // bytes currently retained by checked-out arenas
	cSigBuilt   atomic.Int64 // join signature filters built
	cSigHit     atomic.Int64 // probes skipped by the signature filter
	cSigMiss    atomic.Int64 // probes the filter let through to the hash table
)

// Counters is a snapshot of the executor's process-wide telemetry, in
// the JSON form of the executor block of GET /stats.
type Counters struct {
	// Batches and Rows describe operator output volume; RowsPerBatch is
	// their ratio, the mean batch width an operator hands downstream.
	Batches      int64   `json:"batches"`
	Rows         int64   `json:"rows"`
	RowsPerBatch float64 `json:"rowsPerBatch"`
	// ArenaGets counts arena checkouts (one per evaluation) and
	// ArenaNews the subset that missed the pool; PoolHitRate is
	// 1 - News/Gets.
	ArenaGets   int64   `json:"arenaGets"`
	ArenaNews   int64   `json:"arenaNews"`
	PoolHitRate float64 `json:"poolHitRate"`
	// ArenaBytesInUse is the memory retained by currently checked-out
	// arenas.
	ArenaBytesInUse int64 `json:"arenaBytes"`
	// SigBuilt, SigHit and SigMiss describe the join signature pre-filter:
	// Hit counts probes it rejected before the hash table, Miss the probes
	// it passed through.
	SigBuilt int64 `json:"sigBuilt"`
	SigHit   int64 `json:"sigHit"`
	SigMiss  int64 `json:"sigMiss"`
}

// ReadCounters snapshots the executor telemetry, deriving the mean batch
// width and the arena pool hit rate from the counters it read.
func ReadCounters() Counters {
	c := Counters{
		Batches:         cBatches.Load(),
		Rows:            cBatchRows.Load(),
		ArenaGets:       cArenaGet.Load(),
		ArenaNews:       cArenaNew.Load(),
		ArenaBytesInUse: cArenaInUse.Load(),
		SigBuilt:        cSigBuilt.Load(),
		SigHit:          cSigHit.Load(),
		SigMiss:         cSigMiss.Load(),
	}
	if c.Batches > 0 {
		c.RowsPerBatch = float64(c.Rows) / float64(c.Batches)
	}
	if c.ArenaGets > 0 {
		c.PoolHitRate = 1 - float64(c.ArenaNews)/float64(c.ArenaGets)
	}
	return c
}

// noteBatch records one finalized operator output of n rows.
func noteBatch(n int) {
	cBatches.Add(1)
	cBatchRows.Add(int64(n))
}
