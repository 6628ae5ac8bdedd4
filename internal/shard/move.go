// Placement moves. Reshard changes the ring and its member set;
// Repartition changes one relation's placement (key to key, key to
// broadcast, broadcast to key). Both are the same operation on different
// data — replace the live assignment by another while queries and writes
// keep flowing and every intermediate state answers exactly like one
// engine — so both run through the one engine in this file. A move is
// data: the old assignment, the new assignment, and the relations whose
// placement differs between them. Everything below is computed from that,
// never from which operation built it.
//
// Two invariants carry the exactness argument:
//
//  1. Under whichever assignment the readers are routed by, every member
//     holds a complete slice of what that assignment places on it.
//  2. A delete reaches every engine that could hold a copy of the tuple,
//     so no stale copy outlives it.
//
// # Phases and the write rule
//
// A write to a moving relation goes to the members move.targets picks; the
// first target is always complete under the readers' assignment, so its
// verdict is the caller's result.
//
//	phase    readers on  insert targets     delete targets
//	copy     old         old ∪ new          old ∪ new      (old first)
//	cleanup  new         new                new ∪ old      (new first)
//	abort    old         old                old ∪ new      (old first)
//
// Cleanup inserts skip the old placement so the sweep converges, and
// cleanup deletes still cover it so a tuple deleted mid-sweep loses both
// copies; abort is the mirror image.
//
//	begin    With EVERY write stripe held: publish the move, then drain the
//	         apply-queue lane of each moving relation that is not broadcast
//	         on both sides. No writer can observe the move before those
//	         lanes are empty, and every writer that observes it applies
//	         synchronously on all its targets, so such a lane stays empty
//	         until the move clears and per-tuple order needs no queue
//	         reasoning. (Fencing after the publish instead lets a
//	         synchronous delete overtake a queued insert of the same
//	         tuple.) Holding every stripe is also the barrier that drains
//	         writes routed by the stable rule.
//	copy     For every moving relation and every row present at a holder
//	         under the old assignment, insert it into new.placement −
//	         old.placement, stripe-locked and only if still present at the
//	         source, so a concurrent delete is never resurrected. Rows
//	         written during the phase are double-applied and need no copy.
//	         The set difference is what makes each operation's copy fall
//	         out: ring owners that changed, fresh engines seeded with the
//	         broadcast set, the new key's owner, every member on a promote,
//	         nothing on a demote.
//	flip     Swap the live assignment (ring epoch or placement generation
//	         advances; routing decisions stamped with the old one die),
//	         enter cleanup, then take and release the read fence rs so no
//	         query routed by the old assignment is still running, and pass
//	         a stripe barrier so no write is still applying the copy rule.
//	cleanup  Sweep: delete from every member of the new assignment the
//	         rows it does not place there. Members the move dropped are
//	         simply no longer referenced.
//
// Cancelling ctx during copy aborts: enter the abort phase, pass the
// stripe barrier, sweep by the OLD assignment, and the cluster is back in
// its pre-call state. After the flip the remaining work is bounded local
// cleanup and runs to completion regardless of ctx.
//
// # Lanes
//
// Whether a write may use the broadcast apply queue (anchor synchronous,
// other members enqueued) is decided by the data of the move: the relation
// must be broadcast under the old AND the new assignment. During a
// Reshard that is every broadcast relation — lane order per tuple is
// stripe order before, during and after the move, queued ops keep the
// targets they were acknowledged under, and the anchor, written
// synchronously always, is the one copy source — so Reshard fences
// nothing at begin. During a Repartition the moving relation is keyed on
// at least one side and is off the lane from begin until the move clears.
//
// Surplus copies mid-move are sound for every read strategy: single-shard
// reads and a residue route's owner fetches go to a placement that is
// complete under the readers' assignment; scatter/gather merges and a
// residue route's fetches on every member are set unions, so an extra copy
// on a non-owning member can only re-contribute a row its owner already
// contributed; and a residue route's scans keep from each member only the
// rows the readers' assignment places there (source.go).
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/value"
)

// ErrReshardInProgress is returned by Reshard and Repartition when another
// placement move is still running; the cluster supports one at a time.
var ErrReshardInProgress = errors.New("shard: a reshard is already in progress")

// migBatchRows is how many candidate rows a copy or sweep scan handles
// between context checks (and the test hook).
const migBatchRows = 512

// Move phases; move.targets holds the write rule per phase.
const (
	phaseCopy int32 = iota
	phaseCleanup
	phaseAbort
)

// phaseNames renders move phases for RingStatus.
var phaseNames = [...]string{phaseCopy: "copy", phaseCleanup: "cleanup", phaseAbort: "abort"}

// assignment is one complete answer to "which members hold tuple t of
// rel": a ring with its members plus the per-relation placement. The live
// one is (Router.state, Router.part); a move carries the pair it is moving
// between.
type assignment struct {
	st *ringState
	ps *partState
}

// live returns the assignment readers and stable-mode writers route by.
func (r *Router) live() assignment {
	return assignment{st: r.state.Load(), ps: r.part.Load()}
}

// keyed reports whether rel is partitioned (not broadcast) under a.
func (a assignment) keyed(rel string) bool {
	_, ok := a.ps.keyPos[rel]
	return ok
}

// placement returns the members that must hold tuple t of rel: the ring
// owner of its key when partitioned, every member when broadcast. The
// result aliases the member list (no allocation) and is read-only.
func (a assignment) placement(rel string, t value.Tuple) []*member {
	if pos, ok := a.ps.keyPos[rel]; ok {
		o := a.st.ring.OwnerOf(t[pos])
		return a.st.members[o : o+1 : o+1]
	}
	return a.st.members
}

// sources returns the members whose copy of rel is written synchronously
// and is therefore exact under a stripe lock: every member's own slice
// when partitioned, the anchor alone when broadcast (the other members may
// trail it by their apply-queue lane).
func (a assignment) sources(rel string) []*member {
	if a.keyed(rel) {
		return a.st.members
	}
	return a.st.members[:1]
}

// move is one in-flight placement move, published on Router.move for the
// write path, the constraint fan-out and the status endpoints.
type move struct {
	old, new assignment
	// rels are the relations whose placement differs between old and new,
	// in schema order: all of them when the ring changes, else those whose
	// key does.
	rels  []string
	phase atomic.Int32
	// moved counts row copies streamed out of partitioned relations,
	// seeded those streamed out of broadcast ones; total is the plan's
	// size (both kinds), estimated once when the move starts.
	moved, seeded, total atomic.Int64
}

// moves reports whether rel's placement differs across the move.
func (mv *move) moves(rel string) bool { return slices.Contains(mv.rels, rel) }

// lane reports whether writes to rel may go through its apply-queue lane
// during the move: only when it is broadcast on both sides.
func (mv *move) lane(rel string) bool {
	return !mv.old.keyed(rel) && !mv.new.keyed(rel)
}

// targets picks the members one write to a moving relation must reach, by
// the phase table in the file comment.
func (mv *move) targets(rel string, t value.Tuple, del bool) []*member {
	oldT, newT := mv.old.placement(rel, t), mv.new.placement(rel, t)
	switch phase := mv.phase.Load(); {
	case phase == phaseCopy, del && phase == phaseAbort:
		return unionMembers(oldT, newT)
	case del:
		return unionMembers(newT, oldT)
	case phase == phaseCleanup:
		return newT
	default:
		return oldT
	}
}

// added returns the members the move must copy row t of rel onto when it
// is found at src: new.placement − old.placement, or nothing when src is
// not one of the row's holders under the old assignment (a double-written
// copy on its way in, which every target already has).
func (mv *move) added(rel string, t value.Tuple, src *member) []*member {
	oldT := mv.old.placement(rel, t)
	if !slices.Contains(oldT, src) {
		return nil
	}
	return minusMembers(mv.new.placement(rel, t), oldT)
}

// minusMembers returns the members of a not in b, in a's order.
func minusMembers(a, b []*member) []*member {
	var out []*member
	for _, m := range a {
		if !slices.Contains(b, m) {
			out = append(out, m)
		}
	}
	return out
}

// unionMembers returns a followed by the members of b not in a. It never
// writes through a, which may be a live member list.
func unionMembers(a, b []*member) []*member {
	return append(a[:len(a):len(a)], minusMembers(b, a)...)
}

// ReshardReport summarizes a completed Reshard.
type ReshardReport struct {
	// From and To are the shard counts before and after.
	From, To int
	// Moved is the number of keyed rows that changed owner — the
	// consistent-hashing minimum, about 1/max(From, To) of the keyed
	// data. Seeded is the number of replicated row copies streamed onto
	// engines created by growth (zero when shrinking).
	Moved, Seeded int64
	// Epoch is the ring epoch after the flip.
	Epoch uint64
	// Duration is the wall time of the whole operation.
	Duration time.Duration
}

// RepartitionReport summarizes a completed Repartition.
type RepartitionReport struct {
	// Rel is the relation whose placement changed; From and To name the
	// placements ("broadcast" or the partition-key attribute).
	Rel, From, To string
	// Moved is the number of row copies streamed to new placements.
	Moved int64
	// Gen is the placement generation after the flip.
	Gen uint64
	// Duration is the wall time of the whole operation.
	Duration time.Duration
}

// MigrationProgress describes an in-flight placement move for RingStatus.
type MigrationProgress struct {
	// From and To are the shard counts the move is between (equal for a
	// Repartition).
	From, To int
	// Rel is the relation a Repartition is moving; empty for a Reshard,
	// which moves every relation.
	Rel string
	// Phase is "copy", "cleanup" or "abort".
	Phase string
	// Moved counts row copies streamed so far out of an estimated Total
	// (the move plan measured at start; concurrent writes can drift it).
	Moved, Total int64
}

// RingStatus is the observable placement state: the epoch and size of the
// live ring, and the in-flight move when a Reshard or Repartition is
// running.
type RingStatus struct {
	// Epoch is the current ring epoch (starts at 1, +1 per flip).
	Epoch uint64
	// Shards is the live partition count; Vnodes the virtual nodes per
	// shard on the ring.
	Shards, Vnodes int
	// Migration is nil when the cluster is stable.
	Migration *MigrationProgress
}

// RingStatus returns the current placement state for /stats and tools.
func (r *Router) RingStatus() RingStatus {
	st := r.state.Load()
	out := RingStatus{Epoch: st.epoch, Shards: len(st.members), Vnodes: st.ring.Vnodes()}
	if mv := r.move.Load(); mv != nil {
		out.Migration = &MigrationProgress{
			From:  len(mv.old.st.members),
			To:    len(mv.new.st.members),
			Phase: phaseNames[mv.phase.Load()],
			Moved: mv.moved.Load() + mv.seeded.Load(),
			Total: mv.total.Load(),
		}
		if mv.old.st == mv.new.st {
			out.Migration.Rel = mv.rels[0]
		}
	}
	return out
}

// Reshard changes the live shard count to targetN while queries and
// writes keep flowing, streaming only the rows whose ring owner changes
// (about |moved|/|keyed| ≈ 1/max(N, targetN) of the keyed data, the
// consistent-hashing minimum). Every query answered at any point during
// the operation is exactly the single-engine answer; tuple movement never
// bumps any engine's Version, so cached plans keep serving throughout.
//
// Reshard returns ErrReshardInProgress if another move is still running.
// Cancelling ctx during the copy phase aborts and rolls the cluster back
// to its previous state; after the internal flip the operation is
// committed and runs its bounded cleanup regardless of ctx.
func (r *Router) Reshard(ctx context.Context, targetN int) (*ReshardReport, error) {
	if targetN < 1 {
		return nil, fmt.Errorf("shard: Reshard target must be >= 1, got %d", targetN)
	}
	if !r.rmu.TryLock() {
		return nil, ErrReshardInProgress
	}
	defer r.rmu.Unlock()
	start := time.Now()
	old := r.live()
	oldN := len(old.st.members)
	if targetN == oldN {
		return &ReshardReport{From: oldN, To: targetN, Epoch: old.st.epoch}, nil
	}
	// Growth engines are built and the move published in one cmu section:
	// the constraint fan-out reaches the new members of a published move,
	// so no schema change can fall between an engine's snapshot and its
	// joining the fan-out.
	r.cmu.Lock()
	next, err := r.resized(old.st, targetN)
	if err != nil {
		r.cmu.Unlock()
		return nil, err
	}
	mv := r.newMove(old, assignment{st: next, ps: old.ps})
	r.begin(mv)
	r.cmu.Unlock()
	// Compile the recently routed queries into the fresh engines' plan
	// caches; they receive no query before the flip.
	r.prewarmFresh(next.members[min(oldN, targetN):])
	if err := r.run(ctx, mv); err != nil {
		return nil, err
	}
	return &ReshardReport{
		From:     oldN,
		To:       targetN,
		Moved:    mv.moved.Load(),
		Seeded:   mv.seeded.Load(),
		Epoch:    next.epoch,
		Duration: time.Since(start),
	}, nil
}

// resized builds the ring state one epoch ahead of st with n members: the
// first min(len, n) members survive, growth appends fresh engines carrying
// the current access schema and version, plan-cache size and IVM policy.
// Callers hold cmu.
func (r *Router) resized(st *ringState, n int) (*ringState, error) {
	next := &ringState{epoch: st.epoch + 1, ring: NewRing(n, st.ring.Vnodes()), members: make([]*member, n)}
	A := r.anchor().AccessSnapshot()
	for i := copy(next.members, st.members); i < n; i++ {
		eng, err := core.NewEngine(r.schema, A, store.NewDB(r.schema))
		if err != nil {
			return nil, err
		}
		eng.SyncVersion(r.anchor().Version())
		if r.spec.PlanCacheSize > 0 {
			eng.SetPlanCacheCapacity(r.spec.PlanCacheSize)
		}
		if cfg := r.ivmCfg.Load(); cfg != nil {
			eng.SetIVMConfig(*cfg)
		}
		next.members[i] = newMember(eng)
	}
	return next, nil
}

// placementName renders a relation's placement under ps for reports.
func placementName(ps *partState, rel string) string {
	if key, ok := ps.keys[rel]; ok {
		return key
	}
	return "broadcast"
}

// Repartition moves one relation to a new placement while the cluster
// keeps serving: newKey names the partition-key attribute, or is empty to
// broadcast the relation to every shard. Every query answered at any
// point during the move is exactly the single-engine answer; no engine
// version moves. It returns ErrReshardInProgress when a Reshard or
// another Repartition is still running, and a no-op report when the
// relation already has the requested placement.
//
// Cancelling ctx during the copy phase aborts and rolls the placement
// back; after the internal flip the operation is committed and runs its
// bounded cleanup regardless of ctx.
func (r *Router) Repartition(ctx context.Context, rel, newKey string) (*RepartitionReport, error) {
	attrs, ok := r.schema[rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %q", rel)
	}
	newPos := attrPos(attrs, newKey)
	if newKey != "" && newPos < 0 {
		return nil, fmt.Errorf("shard: relation %s has no attribute %q to partition by", rel, newKey)
	}
	if !r.rmu.TryLock() {
		return nil, ErrReshardInProgress
	}
	defer r.rmu.Unlock()
	start := time.Now()
	old := r.live()
	from := placementName(old.ps, rel)
	// keys[rel] is "" exactly when the relation is broadcast, and "" also
	// encodes "broadcast" as a target, so one comparison covers all no-ops.
	if old.ps.keys[rel] == newKey {
		return &RepartitionReport{Rel: rel, From: from, To: from, Gen: old.ps.gen}, nil
	}
	next := old.ps.rekeyed(rel, newKey, newPos)
	mv := r.newMove(old, assignment{st: old.st, ps: next})
	r.begin(mv)
	if err := r.run(ctx, mv); err != nil {
		return nil, err
	}
	r.resRepartitions.Add(1)
	return &RepartitionReport{
		Rel:      rel,
		From:     from,
		To:       placementName(next, rel),
		Moved:    mv.moved.Load(),
		Gen:      next.gen,
		Duration: time.Since(start),
	}, nil
}

// rekeyed returns the placement one generation ahead of ps in which rel is
// partitioned by attribute key at column pos, or broadcast when key is "".
func (ps *partState) rekeyed(rel, key string, pos int) *partState {
	next := &partState{
		gen:    ps.gen + 1,
		keys:   make(map[string]string, len(ps.keys)+1),
		keyPos: make(map[string]int, len(ps.keyPos)+1),
	}
	for k, v := range ps.keys {
		next.keys[k] = v
		next.keyPos[k] = ps.keyPos[k]
	}
	if key == "" {
		delete(next.keys, rel)
		delete(next.keyPos, rel)
	} else {
		next.keys[rel] = key
		next.keyPos[rel] = pos
	}
	return next
}

// newMove describes the move from old to new: every relation moves when
// the ring does, otherwise those whose partition key differs.
func (r *Router) newMove(old, new assignment) *move {
	mv := &move{old: old, new: new}
	for _, rel := range r.schema.Relations() {
		if old.st != new.st || old.ps.keys[rel] != new.ps.keys[rel] {
			mv.rels = append(mv.rels, rel)
		}
	}
	return mv
}

// begin publishes mv with every write stripe held and, before releasing
// them, drains the lane of every moving relation the move takes off the
// apply queue — so no writer observes the move while such a lane still
// holds an older op of the tuple it is about to write synchronously.
func (r *Router) begin(mv *move) {
	for i := range r.wmu {
		r.wmu[i].Lock()
	}
	r.move.Store(mv)
	for _, rel := range mv.rels {
		if !mv.lane(rel) {
			r.aq.fenceRel(rel)
		}
	}
	for i := range r.wmu {
		r.wmu[i].Unlock()
	}
}

// run drives a published move to its end: copy, then flip and sweep by
// the new assignment — or, when the copy is cancelled, sweep by the old
// one — and clear the move. It returns the copy's error, if any.
func (r *Router) run(ctx context.Context, mv *move) error {
	// Drop materialized answers before the bulk copy: maintaining views
	// tuple-by-tuple through a whole-slice move costs more than the views
	// are worth, and hot fingerprints re-earn them afterwards.
	r.PurgeMaterializations()
	mv.total.Store(r.planSize(mv))
	settled := mv.new
	err := r.copyRows(ctx, mv)
	if err != nil {
		mv.phase.Store(phaseAbort)
		settled = mv.old
	} else {
		r.state.Store(mv.new.st)
		r.part.Store(mv.new.ps)
		mv.phase.Store(phaseCleanup)
		// A query that loaded the pre-flip assignment may be mid-gather
		// over it, and the sweep must not delete moved rows out from under
		// it.
		r.rs.Lock()
		r.rs.Unlock() //nolint:staticcheck // immediate unlock: the pair is a reader drain, not a critical section
	}
	r.stripeBarrier()
	r.sweep(mv, settled)
	r.move.Store(nil)
	// Drain the apply queue before reporting: broadcast copies enqueued
	// for engines a shrink dropped are flushed out of the lanes, and
	// callers reading any member right after a move (operators, tests)
	// see every write it raced with.
	r.aq.fenceAll()
	return err
}

// stripeBarrier acquires and releases every write stripe, so every write
// that began under the previous phase has finished before the caller
// proceeds. Writers load the phase after taking their stripe, so any
// write starting after the barrier sees the new phase.
func (r *Router) stripeBarrier() {
	for i := range r.wmu {
		r.wmu[i].Lock()
		r.wmu[i].Unlock() //nolint:staticcheck // immediate unlock: the pair is a drain, not a critical section
	}
}

// migStep runs the per-batch bookkeeping of a move scan: the test hook
// (if any) and the context check. It returns ctx.Err() when the scan
// should stop.
func (r *Router) migStep(ctx context.Context) error {
	if r.hookMigBatch != nil {
		r.hookMigBatch()
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// planSize estimates the copy phase's work — the row copies copyRows
// would stream if nothing changed — by scanning the same sources in place.
// It holds no stripe, so it is an estimate under churn, used for progress
// only.
func (r *Router) planSize(mv *move) int64 {
	var total int64
	for _, rel := range mv.rels {
		for _, src := range mv.old.sources(rel) {
			_, _ = src.eng.DB().ScanFunc(rel, func(t value.Tuple) bool {
				total += int64(len(mv.added(rel, t, src)))
				return true
			})
		}
	}
	return total
}

// copyRows is the copy phase: every row of a moving relation, read from
// the members that hold it synchronously under the old assignment, is
// inserted into the placements the new assignment adds. The presence
// probe and the inserts run under the row's write stripe, so the copy
// serializes with concurrent writes of the same tuple.
func (r *Router) copyRows(ctx context.Context, mv *move) error {
	for _, rel := range mv.rels {
		count := &mv.seeded
		if mv.old.keyed(rel) {
			count = &mv.moved
		}
		for _, src := range mv.old.sources(rel) {
			rows, err := src.eng.DB().Rows(rel)
			if err != nil {
				return err
			}
			for i, t := range rows {
				if i%migBatchRows == 0 {
					if err := r.migStep(ctx); err != nil {
						return err
					}
				}
				dst := mv.added(rel, t, src)
				if len(dst) == 0 {
					continue
				}
				mu := &r.wmu[stripeOf(rel, t)]
				mu.Lock()
				ok, err := src.eng.DB().Has(rel, t)
				for j := 0; err == nil && ok && j < len(dst); j++ {
					_, err = dst[j].eng.Insert(rel, t)
				}
				mu.Unlock()
				if err != nil {
					return err
				}
				if ok {
					count.Add(int64(len(dst)))
				}
			}
		}
	}
	return nil
}

// sweep deletes from every member of assignment a the rows of moving
// relations that a does not place there, one stripe-locked row at a time:
// the cleanup sweep under the new assignment, the abort sweep under the
// old one. It runs to completion regardless of any context.
func (r *Router) sweep(mv *move, a assignment) {
	for _, rel := range mv.rels {
		if !a.keyed(rel) {
			continue // broadcast under a: every member holds every row
		}
		for _, m := range a.st.members {
			rows, err := m.eng.DB().Rows(rel)
			if err != nil {
				continue
			}
			for i, t := range rows {
				if i%migBatchRows == 0 {
					_ = r.migStep(nil)
				}
				if slices.Contains(a.placement(rel, t), m) {
					continue
				}
				mu := &r.wmu[stripeOf(rel, t)]
				mu.Lock()
				_, _ = m.eng.Delete(rel, t)
				mu.Unlock()
			}
		}
	}
}
