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

// Counters is a snapshot of the executor's process-wide telemetry.
type Counters struct {
	// Batches and Rows describe operator output volume; Rows/Batches is
	// the mean batch width.
	Batches, Rows int64
	// ArenaGets counts arena checkouts (one per evaluation) and
	// ArenaNews the subset that missed the pool; 1 - News/Gets is the pool
	// hit rate.
	ArenaGets, ArenaNews int64
	// ArenaBytesInUse is the memory retained by currently checked-out
	// arenas.
	ArenaBytesInUse int64
	// SigBuilt, SigHit and SigMiss describe the join signature pre-filter:
	// Hit counts probes it rejected before the hash table, Miss the probes
	// it passed through.
	SigBuilt, SigHit, SigMiss int64
}

// ReadCounters snapshots the executor telemetry.
func ReadCounters() Counters {
	return Counters{
		Batches:         cBatches.Load(),
		Rows:            cBatchRows.Load(),
		ArenaGets:       cArenaGet.Load(),
		ArenaNews:       cArenaNew.Load(),
		ArenaBytesInUse: cArenaInUse.Load(),
		SigBuilt:        cSigBuilt.Load(),
		SigHit:          cSigHit.Load(),
		SigMiss:         cSigMiss.Load(),
	}
}

// noteBatch records one finalized operator output of n rows.
func noteBatch(n int) {
	cBatches.Add(1)
	cBatchRows.Add(int64(n))
}
