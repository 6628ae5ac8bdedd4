// The broadcast apply pipeline: an asynchronous, ordered write queue with
// PER-RELATION lanes and watermarks. It exists so broadcast-replicated
// relations — the only relations whose writes fan out to every shard —
// do not serialize the whole cluster's write path: the anchor shard
// (member 0) commits synchronously and supplies the caller's verdict,
// while the copies destined for the other members are enqueued here and
// applied later in coalesced batches, one Engine.ApplyBatch — one
// exclusive store lock acquisition per engine — per batch: O(batches),
// not O(writes × members).
//
// Partitioned writes never queue: they commit synchronously on their
// owner(s). In durable mode they still pass through enqueue so the
// write-ahead log records them in ticket order, but they contribute no
// lane op.
//
// # Ordering
//
// Correctness needs only per-tuple ordering: two writes of the same tuple
// must reach every engine in the order the write stripe serialized them.
// A tuple always belongs to one relation, every enqueue happens under the
// caller's write stripe (shard.go), and a relation maps to exactly one
// lane — so lane order per tuple equals stripe order. A lane's ops are
// applied under the lane's apply mutex, held across the swap AND the
// store application, so two drains of the same lane (the background
// applier and a synchronous fence) can never reorder batches.
//
// # Per-relation watermarks
//
// Each lane tracks the highest ticket enqueued on it (last) and the
// highest ticket it has applied (applied). A reader that depends only on
// relation R fences R's lane: it drains R's pending ops synchronously and
// returns — relations with deep backlogs on other lanes are untouched,
// which is what keeps read-your-writes O(the reader's own dependencies)
// after the full-copy replica's removal. fenceAll remains for operations
// that depend on everything (checkpoints, constraint changes).
//
// # Tickets and durability
//
// Tickets come from a global counter; in durable mode the ticket space IS
// the write-ahead log's LSN space: the enqueue appends the op to the log
// under its lane lock and adopts the returned LSN as the ticket, and
// constraint changes are logged through the same counter via logRecord.
// "fence(W)" therefore uniformly means "every logged record with LSN <= W
// has been applied everywhere it targets" — exactly what a checkpoint
// needs before assembling a snapshot at log position W. The global cut is
// taken under qmu held exclusively, which excludes all enqueues, so a cut
// at counter value W has every op ticketed <= W in its lanes.
//
// # Lifecycle
//
// There is no resident goroutine. An enqueue that finds no applier
// running starts one; the applier loops — cut, drain every lane, publish
// — until a cut comes back empty and exits under the same exclusive
// section, so no op can slip between its last look and its exit.
package shard

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// laneOp is one queued broadcast write: the tuple op plus the engines it
// must still reach. Targets are resolved at enqueue time, under the ring
// state and migration phase the acknowledged write committed under, so a
// later ring change cannot re-aim an already-acknowledged write.
type laneOp struct {
	op      store.TupleOp
	targets []*core.Engine
}

// relLane is one relation's FIFO of pending broadcast writes plus its
// watermark pair.
type relLane struct {
	mu  sync.Mutex
	ops []laneOp
	// last is the highest ticket enqueued on this lane; a fence that only
	// depends on this relation waits for the lane watermark to pass it.
	last uint64
	// applied is the lane watermark: every op ticketed <= applied has
	// reached all its targets.
	applied atomic.Uint64
	// amu serializes drains of this lane, held across swap AND apply, so
	// a synchronous fence and the background applier cannot reorder two
	// batches of the same lane.
	amu sync.Mutex
	// drains counts drain passes that applied at least one op; the
	// per-relation fence tests pin that fencing R leaves S's counter
	// unchanged.
	drains atomic.Int64
}

// applyQueue batches broadcast writes per relation, preserving per-tuple
// order and exposing per-relation watermark fences. See the package
// comment at the top of this file for the protocol.
type applyQueue struct {
	// wal, when non-nil, makes the queue durable: every enqueued op is
	// appended to the log first (log-before-acknowledge) and its LSN
	// becomes the ticket.
	wal *wal.Log

	// qmu orders enqueues against the applier's global cut: enqueues hold
	// it shared (ticket assignment and lane append are one atomic step
	// under it), the cut holds it exclusively.
	qmu   sync.RWMutex
	lanes map[string]*relLane

	// enq is the global ticket counter; applied the global watermark.
	enq     atomic.Uint64
	applied atomic.Uint64

	// enqOps / appliedOps count lane ops (not tickets): observability for
	// the backlog depth, unaffected by WAL-only tickets of partitioned
	// writes.
	enqOps     atomic.Int64
	appliedOps atomic.Int64

	// running is true while a background applier goroutine is live.
	running atomic.Bool
	// paused suppresses applier spawning on enqueue. Tests use it to
	// accumulate a deterministic backlog; fences still drain, so no
	// reader can be wedged by it.
	paused atomic.Bool

	// fmu/fcond park global-fence readers until the global watermark
	// passes their ticket.
	fmu   sync.Mutex
	fcond *sync.Cond

	// batches counts per-engine ApplyBatch calls (= engine write-lock
	// acquisitions), maxBatch the largest single batch, errors batches
	// whose application reported a store rejection (writes are validated
	// before enqueue, so any error is a bug).
	batches  atomic.Int64
	maxBatch atomic.Int64
	errors   atomic.Int64

	// errmu/firstErr retain the first apply or log failure; health
	// surfaces it so the serving layer can report degraded.
	errmu    sync.Mutex
	firstErr error
}

// newApplyQueue returns an idle queue with one lane per relation of
// schema. A non-nil w makes it durable (tickets become log LSNs).
func newApplyQueue(schema ra.Schema, w *wal.Log) *applyQueue {
	q := &applyQueue{wal: w, lanes: make(map[string]*relLane, len(schema))}
	for rel := range schema {
		q.lanes[rel] = &relLane{}
	}
	q.fcond = sync.NewCond(&q.fmu)
	return q
}

// maxTicket advances the ticket counter to at least v. LSNs are handed
// out monotonically by the log, but two enqueues on different lanes may
// publish them out of order; CAS-max keeps the counter consistent.
func (q *applyQueue) maxTicket(v uint64) {
	for {
		cur := q.enq.Load()
		if cur >= v || q.enq.CompareAndSwap(cur, v) {
			return
		}
	}
}

// enqueue records one acknowledged write: it appends the op to the
// relation's lane for the given target engines (none for a partitioned
// write, whose owners already committed synchronously) and returns its
// ticket. The caller must hold the tuple's write stripe lock, which is
// what orders same-tuple enqueues. In durable mode the op is appended to
// the write-ahead log first — under the lane lock, so log order equals
// lane (and hence apply) order per tuple — and a log failure rejects the
// write before anything is enqueued.
func (q *applyQueue) enqueue(rel string, t value.Tuple, del bool, targets []*core.Engine) (uint64, error) {
	op := store.TupleOp{Rel: rel, T: t, Del: del}
	q.qmu.RLock()
	ln := q.lanes[rel]
	ln.mu.Lock()
	var ticket uint64
	if q.wal != nil {
		lsn, err := q.wal.Append(wal.Record{Kind: wal.KindTuple, Op: op})
		if err != nil {
			ln.mu.Unlock()
			q.qmu.RUnlock()
			q.fail(err)
			return 0, err
		}
		ticket = lsn
		q.maxTicket(lsn)
	} else {
		ticket = q.enq.Add(1)
	}
	if len(targets) > 0 {
		ln.ops = append(ln.ops, laneOp{op: op, targets: targets})
		ln.last = ticket
		q.enqOps.Add(1)
	}
	ln.mu.Unlock()
	q.qmu.RUnlock()
	if len(targets) > 0 && !q.paused.Load() {
		q.spawn()
	}
	return ticket, nil
}

// logRecord appends a non-tuple record (a constraint change) to the log
// and folds its LSN into the ticket space so fences cover it. The record
// is not lane-queued — constraint changes are applied to every engine
// synchronously by the router — but the watermark must still be able to
// pass its LSN, which the empty-cut publish in run guarantees. Callers
// serialize constraint changes (Router.cmu), so ordering needs no lane.
func (q *applyQueue) logRecord(rec wal.Record) error {
	if q.wal == nil {
		return nil
	}
	lsn, err := q.wal.Append(rec)
	if err != nil {
		q.fail(err)
		return err
	}
	q.maxTicket(lsn)
	return nil
}

// spawn starts a background applier if none is running.
func (q *applyQueue) spawn() {
	if q.running.CompareAndSwap(false, true) {
		go q.run()
	}
}

// run is the background applier loop: global cut, drain every lane,
// publish, until a cut is empty.
func (q *applyQueue) run() {
	for {
		q.qmu.Lock()
		cut := q.enq.Load()
		busy := false
		for _, ln := range q.lanes {
			ln.mu.Lock()
			if len(ln.ops) > 0 {
				busy = true
			}
			ln.mu.Unlock()
			if busy {
				break
			}
		}
		if !busy {
			// Exit inside the exclusive section: any enqueue after it sees
			// running == false and spawns a fresh applier, so no op is left
			// behind. Still publish the cut — tickets may exist with no
			// lane op (partitioned writes in durable mode, constraint
			// records via logRecord), and a fence on such a ticket must
			// terminate.
			q.publish(cut)
			q.running.Store(false)
			q.qmu.Unlock()
			return
		}
		q.qmu.Unlock()

		for _, ln := range q.lanes {
			q.drainLane(ln)
		}
		// Every op ticketed <= cut was in some lane before the exclusive
		// section above (enqueues hold qmu shared), and every lane has now
		// been drained at least once since, so the global watermark may
		// advance to the cut.
		q.publish(cut)
	}
}

// drainLane applies one lane's pending ops, grouped per target engine in
// lane order, and advances the lane watermark. The lane apply mutex is
// held across swap and application so concurrent drains (background
// applier vs a fencing reader) cannot reorder two batches of one lane.
func (q *applyQueue) drainLane(ln *relLane) {
	ln.amu.Lock()
	defer ln.amu.Unlock()
	ln.mu.Lock()
	ops := ln.ops
	ln.ops = nil
	last := ln.last
	ln.mu.Unlock()
	if len(ops) > 0 {
		// Group per engine, preserving lane order within each group: a
		// tuple's ops stay ordered because they all target the same
		// engines in the same lane sequence.
		groups := make(map[*core.Engine][]store.TupleOp)
		var order []*core.Engine
		for _, lo := range ops {
			for _, eng := range lo.targets {
				if groups[eng] == nil {
					order = append(order, eng)
				}
				groups[eng] = append(groups[eng], lo.op)
			}
		}
		for _, eng := range order {
			batch := groups[eng]
			if err := eng.ApplyBatch(batch); err != nil {
				q.errors.Add(1)
				q.fail(err)
			}
			q.batches.Add(1)
			if n := int64(len(batch)); n > q.maxBatch.Load() {
				q.maxBatch.Store(n) // amu serializes per lane; cross-lane race only loses a stat update
			}
		}
		q.appliedOps.Add(int64(len(ops)))
		ln.drains.Add(1)
	}
	// Monotone under amu: concurrent drains of the same lane serialize.
	if ln.applied.Load() < last {
		ln.applied.Store(last)
	}
}

// publish advances the global watermark to cut and wakes fencing readers.
// The guard keeps it monotone even if a stale cut is replayed.
func (q *applyQueue) publish(cut uint64) {
	q.fmu.Lock()
	if q.applied.Load() < cut {
		q.applied.Store(cut)
		q.fcond.Broadcast()
	}
	q.fmu.Unlock()
}

// fail retains the first apply or log error for health reporting.
func (q *applyQueue) fail(err error) {
	q.errmu.Lock()
	if q.firstErr == nil {
		q.firstErr = err
	}
	q.errmu.Unlock()
}

// health returns the first retained apply/log error, or nil.
func (q *applyQueue) health() error {
	q.errmu.Lock()
	defer q.errmu.Unlock()
	return q.firstErr
}

// fence blocks until every op ticketed <= ticket has been applied,
// globally. It spawns an applier if none is running (covering the paused
// test mode and the spawn/exit race), so it always terminates.
func (q *applyQueue) fence(ticket uint64) {
	if ticket == 0 || q.applied.Load() >= ticket {
		return
	}
	q.spawn()
	q.fmu.Lock()
	for q.applied.Load() < ticket {
		q.fcond.Wait()
	}
	q.fmu.Unlock()
}

// fenceAll drains everything enqueued so far: read-your-writes for a
// reader that may depend on any prior write (checkpoints, constraint
// changes, full-cluster observability reads).
func (q *applyQueue) fenceAll() {
	q.fence(q.enq.Load())
}

// fenceRel drains only the writes pending for one relation — the
// per-relation watermark fence. A reader touching broadcast relation R
// calls it before reading any non-anchor member; relations with deep
// backlogs on other lanes are not drained, so the fence costs O(R's own
// backlog). The drain is synchronous on the caller (no parking on the
// background applier), which also covers the paused test mode.
func (q *applyQueue) fenceRel(rel string) {
	ln := q.lanes[rel]
	if ln == nil {
		return
	}
	ln.mu.Lock()
	last := ln.last
	ln.mu.Unlock()
	if ln.applied.Load() >= last {
		return
	}
	q.drainLane(ln)
}

// laneStats reports one lane's (depth, drain count) for tests.
func (q *applyQueue) laneStats(rel string) (depth int, drains int64) {
	ln := q.lanes[rel]
	if ln == nil {
		return 0, 0
	}
	ln.mu.Lock()
	depth = len(ln.ops)
	ln.mu.Unlock()
	return depth, ln.drains.Load()
}

// ApplyQueueStats is an observability snapshot of the broadcast apply
// pipeline, exposed via Router.ApplyQueueStats and GET /stats.
type ApplyQueueStats struct {
	// Enqueued counts broadcast copy-ops accepted since the router was
	// built; Applied is how many have reached all their target engines.
	// Their difference is Depth, the current backlog across all lanes.
	Enqueued, Applied, Depth int64
	// Batches counts batched store applications — engine write-lock
	// acquisitions. Enqueued/Batches is the realized coalescing factor.
	Batches int64
	// MaxBatch is the largest batch applied so far.
	MaxBatch int64
	// Errors counts batch applications in which the store rejected at
	// least one op. Writes are validated before they are enqueued, so a
	// non-zero value indicates a bug.
	Errors int64
}

// stats snapshots the counters. Applied is read before Enqueued so the
// derived Depth can never go negative when a drain lands between the two
// loads.
func (q *applyQueue) stats() ApplyQueueStats {
	app := q.appliedOps.Load()
	enq := q.enqOps.Load()
	return ApplyQueueStats{
		Enqueued: enq,
		Applied:  app,
		Depth:    enq - app,
		Batches:  q.batches.Load(),
		MaxBatch: q.maxBatch.Load(),
		Errors:   q.errors.Load(),
	}
}
