package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/wal"
)

// DefaultCheckpointEvery is the checkpoint cadence (in logged records)
// used when DurableConfig.CheckpointEvery is zero. It bounds recovery
// replay to at most this many records on top of a snapshot load.
const DefaultCheckpointEvery = 10000

// DurableConfig configures the durable mode of an engine or a sharded
// router: where the write-ahead log lives, how it syncs, and how often the
// store is checkpointed.
type DurableConfig struct {
	// Dir is the data directory holding log segments and checkpoints.
	Dir string
	// WAL tunes the log (fsync policy, segment size).
	WAL wal.Options
	// CheckpointEvery writes a checkpoint every that many logged records
	// (DefaultCheckpointEvery when zero; negative disables automatic
	// checkpoints — Checkpoint can still be called explicitly).
	CheckpointEvery int64
}

// Every resolves the effective checkpoint cadence: the default when
// CheckpointEvery is zero, disabled (0) when it is negative.
func (c DurableConfig) Every() int64 {
	if c.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	if c.CheckpointEvery < 0 {
		return 0
	}
	return c.CheckpointEvery
}

// OpenDurable opens (or creates) a durable engine backed by the log in
// cfg.Dir. When the directory holds prior state, db and A are IGNORED in
// favor of recovery: the newest loadable checkpoint is loaded, the log
// suffix past it is replayed, and indices are rebuilt once in O(|D|). On a
// fresh directory the provided db and A are adopted and an initial
// checkpoint is written immediately, so the seed data is durable before
// the first write is acknowledged.
func OpenDurable(schema ra.Schema, A *access.Schema, db *store.DB, cfg DurableConfig) (*Engine, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: durable engine needs a data directory")
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
	eng, err := NewEngine(schema, A, db)
	if err != nil {
		log.Close()
		return nil, err
	}
	eng.wal = log
	eng.ckEvery = cfg.Every()
	if !rec.Found {
		if err := log.WriteCheckpoint(log.LastLSN(), eng.db.Save); err != nil {
			log.Close()
			return nil, err
		}
	}
	return eng, nil
}

// validateWrite front-runs the store's own validation so that an op is
// never logged unless replaying it will succeed: recovery treats a replay
// failure as corruption, so the log must only ever contain applicable ops.
func (e *Engine) validateWrite(op store.TupleOp) error {
	attrs, ok := e.schema[op.Rel]
	if !ok {
		return fmt.Errorf("store: unknown relation %q", op.Rel)
	}
	if !op.Del && len(op.T) != len(attrs) {
		return fmt.Errorf("store: %s expects %d values, got %d", op.Rel, len(attrs), len(op.T))
	}
	return nil
}

// maybeCheckpoint starts a background checkpoint when the replay debt
// passed the configured cadence and none is already running.
func (e *Engine) maybeCheckpoint() {
	if e.ckEvery <= 0 || e.wal.SinceCheckpoint() < e.ckEvery {
		return
	}
	if !e.ckBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.ckBusy.Store(false)
		_ = e.Checkpoint() // failure is retained by the log; Health reports it
	}()
}

// Checkpoint writes a durable, LSN-stamped snapshot of the store and
// prunes log segments it makes dead. The checkpoint barrier (exclusive
// ckmu) is held only to READ the log position: at that instant no durable
// mutation is between append and apply, so the snapshot taken right after
// contains every op at or below the stamped LSN. Concurrent writes during
// the (long) snapshot save only add ops beyond the stamp, which replay
// tolerates. No-op on a non-durable engine.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	e.ckmu.Lock()
	lsn := e.wal.LastLSN()
	e.ckmu.Unlock()
	return e.wal.WriteCheckpoint(lsn, e.db.Save)
}

// Close flushes and closes the write-ahead log after waiting out in-flight
// durable mutations. Queries remain possible; further writes fail. No-op
// on a non-durable engine.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	e.ckmu.Lock()
	defer e.ckmu.Unlock()
	return e.wal.Close()
}

// Health reports nil while durability is intact. A non-nil error is the
// first append, fsync or checkpoint failure the log hit — from then on
// acknowledged writes may not be durable and the process should be
// restarted (recovery replays the intact prefix). Always nil for a
// non-durable engine.
func (e *Engine) Health() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Err()
}

// DurabilityStats returns the write-ahead-log counters and ok=true when
// the engine is durable.
func (e *Engine) DurabilityStats() (wal.Stats, bool) {
	if e.wal == nil {
		return wal.Stats{}, false
	}
	return e.wal.Stats(), true
}

// WAL exposes the engine's write-ahead log for read-side consumers: the
// replication stream endpoint tails it and the follower keeps LSN parity
// through it. Nil when the engine is not durable. Callers must not append
// or checkpoint through it while the engine owns the write path — the
// follower is the one exception, and it applies from a single goroutine
// with no other writers.
func (e *Engine) WAL() *wal.Log { return e.wal }
