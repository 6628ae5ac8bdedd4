// Package follower implements read replicas over the write-ahead log.
//
// A follower Node bootstraps from the primary's newest checkpoint
// (GET /wal/snapshot), opens a durable engine on its local copy, and then
// tails the primary's log (GET /wal/stream) from its applied watermark,
// feeding every record through the engine's normal apply path so the
// store, indices, IVM views and plan cache stay warm. The follower keeps
// its own write-ahead log in strict LSN parity with the primary: "the
// write at LSN T" is the same event on both sides, which is what makes
// crash recovery local — a restarted follower recovers from its own
// checkpoint + log and resumes the stream at exactly the next LSN, with
// zero primary-side state.
//
// A Node is a read-only core.Service: queries execute locally, mutations
// fail with ErrReadOnly. Reads can carry a read-your-writes fence — the
// front end calls WaitLSN with the client's MinLSN stamp and the query
// blocks until the applied watermark reaches it.
package follower

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrReadOnly is returned by every mutating method of a follower: all
// writes go to the primary and arrive here through the replication
// stream.
var ErrReadOnly = errors.New("follower: read-only replica; write to the primary")

// Defaults for Config fields left zero.
const (
	// DefaultStallAfter is how long without any stream traffic (records
	// or heartbeats) before Health reports the follower degraded.
	DefaultStallAfter = 10 * time.Second
	// DefaultAckEvery is the cadence of applied-watermark acks to the
	// primary's /wal/ack (purely observational).
	DefaultAckEvery = time.Second
	// DefaultReconnectMin and DefaultReconnectMax bound the exponential
	// backoff between stream reconnect attempts.
	DefaultReconnectMin = 100 * time.Millisecond
	DefaultReconnectMax = 2 * time.Second
)

// Config configures a follower Node.
type Config struct {
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:8080".
	Primary string
	// DataDir is the follower's own data directory (checkpoints + log).
	// It must not be shared with the primary or another follower.
	DataDir string
	// ID is the identity the follower streams and acks under, shown in
	// the primary's replication /stats. Default "follower-<pid>".
	ID string
	// WAL tunes the follower's local log (fsync policy, segment size).
	WAL wal.Options
	// CheckpointEvery is the local checkpoint cadence in applied records
	// (core.DefaultCheckpointEvery when zero; negative disables).
	CheckpointEvery int64
	// StallAfter is how long without stream traffic before Health
	// degrades. 0 means DefaultStallAfter.
	StallAfter time.Duration
	// AckEvery is the applied-watermark ack cadence. 0 means
	// DefaultAckEvery.
	AckEvery time.Duration
	// ReconnectMin and ReconnectMax bound the reconnect backoff. 0 means
	// the defaults.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logger receives connection and recovery events. nil means
	// slog.Default.
	Logger *slog.Logger
}

// withDefaults resolves zero Config fields.
func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = fmt.Sprintf("follower-%d", os.Getpid())
	}
	if c.StallAfter == 0 {
		c.StallAfter = DefaultStallAfter
	}
	if c.AckEvery == 0 {
		c.AckEvery = DefaultAckEvery
	}
	if c.ReconnectMin == 0 {
		c.ReconnectMin = DefaultReconnectMin
	}
	if c.ReconnectMax == 0 {
		c.ReconnectMax = DefaultReconnectMax
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Node is a read replica: a local durable engine kept in LSN parity with
// the primary by tailing its replication stream. It implements
// core.Service (read-only, its Stats carrying the follower block) and
// exposes its local log through WAL, so server.New serves it exactly like
// a primary — plus the WaitLSN fence.
type Node struct {
	cfg    Config
	cli    *server.Client
	schema ra.Schema

	eng atomic.Pointer[core.Engine]

	applied    atomic.Uint64 // last LSN applied locally
	primaryLSN atomic.Uint64 // last LSN observed on the primary
	streaming  atomic.Bool
	records    atomic.Int64
	reconnects atomic.Int64
	snapshots  atomic.Int64

	// resumedFrom is the watermark recovered from local state at Open
	// (0 when the follower bootstrapped fresh).
	resumedFrom uint64

	mu          sync.Mutex
	notify      chan struct{} // closed and replaced on every advance
	lastContact time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Open bootstraps (or resumes) a follower against cfg.Primary and starts
// tailing its log. ctx bounds the bootstrap phase only — schema fetch
// and, on a fresh DataDir, the checkpoint download; the tail loop runs
// until Close. The primary must be reachable at Open (the schema is
// fetched from it); an existing DataDir resumes from its own recovered
// state without downloading a snapshot.
func Open(ctx context.Context, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" {
		return nil, errors.New("follower: Config.Primary is required")
	}
	if cfg.DataDir == "" {
		return nil, errors.New("follower: Config.DataDir is required")
	}
	n := &Node{cfg: cfg, cli: server.NewClient(cfg.Primary)}
	sch, err := n.cli.Schema(ctx)
	if err != nil {
		return nil, fmt.Errorf("follower: fetching schema from %s: %w", cfg.Primary, err)
	}
	n.schema = ra.Schema(sch.Relations)
	resumed := wal.HasState(cfg.DataDir)
	if !resumed {
		if err := n.fetchSnapshot(ctx); err != nil {
			return nil, err
		}
	}
	eng, err := n.openEngine()
	if err != nil {
		return nil, err
	}
	n.eng.Store(eng)
	if st, ok := eng.DurabilityStats(); ok {
		n.applied.Store(st.LastLSN)
		n.primaryLSN.Store(st.LastLSN)
		if resumed {
			n.resumedFrom = st.LastLSN
		}
	}
	n.lastContact = time.Now()
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.done = make(chan struct{})
	cfg.Logger.Info("follower open",
		"id", cfg.ID, "primary", cfg.Primary, "applied", n.applied.Load(), "resumed", resumed)
	go n.tailLoop()
	return n, nil
}

// fetchSnapshot downloads the primary's newest checkpoint into DataDir.
func (n *Node) fetchSnapshot(ctx context.Context) error {
	body, lsn, err := n.cli.WALSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("follower: downloading checkpoint from %s: %w", n.cfg.Primary, err)
	}
	defer body.Close()
	got, err := wal.InstallCheckpoint(n.cfg.DataDir, body)
	if err != nil {
		return fmt.Errorf("follower: installing checkpoint: %w", err)
	}
	if got != lsn {
		return fmt.Errorf("follower: checkpoint LSN mismatch: header says %d, primary advertised %d", got, lsn)
	}
	n.snapshots.Add(1)
	return nil
}

// openEngine opens the local durable engine over DataDir (recovery wins
// over the seed arguments, so the installed checkpoint + local log decide
// the state).
func (n *Node) openEngine() (*core.Engine, error) {
	return core.OpenDurable(n.schema, nil, store.NewDB(n.schema), core.DurableConfig{
		Dir:             n.cfg.DataDir,
		WAL:             n.cfg.WAL,
		CheckpointEvery: n.cfg.CheckpointEvery,
	})
}

// tailLoop streams, applies, and reconnects with exponential backoff
// until Close. A 410 from the primary (our position predates its
// retained log) triggers a re-bootstrap from a fresh snapshot.
func (n *Node) tailLoop() {
	defer close(n.done)
	backoff := n.cfg.ReconnectMin
	for {
		before := n.applied.Load()
		err := n.streamOnce()
		if n.ctx.Err() != nil {
			return
		}
		if n.applied.Load() > before {
			backoff = n.cfg.ReconnectMin // made progress; reset backoff
		}
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusGone {
			n.cfg.Logger.Warn("follower position pruned on primary; re-bootstrapping", "id", n.cfg.ID, "applied", n.applied.Load())
			if rbErr := n.rebootstrap(); rbErr != nil {
				n.cfg.Logger.Error("follower re-bootstrap failed", "id", n.cfg.ID, "err", rbErr)
			} else {
				backoff = n.cfg.ReconnectMin
				continue
			}
		} else if err != nil && !errors.Is(err, context.Canceled) {
			n.cfg.Logger.Warn("follower stream ended", "id", n.cfg.ID, "applied", n.applied.Load(), "err", err)
		}
		select {
		case <-n.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > n.cfg.ReconnectMax {
			backoff = n.cfg.ReconnectMax
		}
	}
}

// streamOnce opens one replication stream at the applied watermark and
// applies frames until the stream ends or errors.
func (n *Node) streamOnce() error {
	body, err := n.cli.WALStream(n.ctx, n.applied.Load(), n.cfg.ID)
	if err != nil {
		return err
	}
	defer body.Close()
	n.reconnects.Add(1)
	n.streaming.Store(true)
	defer n.streaming.Store(false)
	n.touchContact()

	lastAck := time.Now()
	var ackedLSN uint64
	maybeAck := func() {
		lsn := n.applied.Load()
		if lsn == ackedLSN || time.Since(lastAck) < n.cfg.AckEvery {
			return
		}
		ackCtx, cancel := context.WithTimeout(n.ctx, n.cfg.AckEvery)
		err := n.cli.WALAck(ackCtx, n.cfg.ID, lsn)
		cancel()
		if err == nil {
			ackedLSN = lsn
		}
		lastAck = time.Now()
	}
	err = wal.ReadFrames(body, func(rec wal.Record) error {
		n.touchContact()
		if rec.Kind == wal.KindHeartbeat {
			if rec.LSN > n.primaryLSN.Load() {
				n.primaryLSN.Store(rec.LSN)
			}
			maybeAck()
			return nil
		}
		if rec.LSN <= n.applied.Load() {
			return nil // duplicate of an already-applied record
		}
		if err := n.apply(rec); err != nil {
			return err
		}
		maybeAck()
		return nil
	})
	// Best-effort final ack so the primary's lag figures settle.
	if lsn := n.applied.Load(); lsn > ackedLSN {
		ackCtx, cancel := context.WithTimeout(context.Background(), n.cfg.AckEvery)
		_ = n.cli.WALAck(ackCtx, n.cfg.ID, lsn)
		cancel()
	}
	if err == nil {
		err = io.ErrUnexpectedEOF // the stream never ends on its own
	}
	return err
}

// apply feeds one streamed record through the engine's normal apply path
// and verifies LSN parity: after the apply, the local log's last LSN must
// equal the record's. The engine appends to the local log itself on every
// tuple write; the two constraint cases it would silently dedupe (adding
// one already installed, removing one not installed) are journaled
// directly so parity holds regardless.
func (n *Node) apply(rec wal.Record) error {
	eng := n.eng.Load()
	if want := n.applied.Load() + 1; rec.LSN != want {
		return fmt.Errorf("follower: stream gap: got LSN %d, want %d", rec.LSN, want)
	}
	var err error
	switch rec.Kind {
	case wal.KindTuple:
		if rec.Op.Del {
			_, err = eng.Delete(rec.Op.Rel, rec.Op.T)
		} else {
			_, err = eng.Insert(rec.Op.Rel, rec.Op.T)
		}
	case wal.KindAddConstraint:
		if hasConstraint(eng, rec.Con) {
			err = journal(eng, rec)
		} else {
			err = eng.AddConstraints(rec.Con)
		}
	case wal.KindRemoveConstraint:
		if hasConstraint(eng, rec.Con) {
			eng.RemoveConstraint(rec.Con)
		} else {
			err = journal(eng, rec)
		}
	default:
		return fmt.Errorf("follower: unknown record kind %d at LSN %d", rec.Kind, rec.LSN)
	}
	if err != nil {
		return fmt.Errorf("follower: applying LSN %d: %w", rec.LSN, err)
	}
	st, ok := eng.DurabilityStats()
	if !ok || st.LastLSN != rec.LSN {
		return fmt.Errorf("follower: LSN divergence after applying %d: local log at %d", rec.LSN, st.LastLSN)
	}
	if rec.LSN > n.primaryLSN.Load() {
		n.primaryLSN.Store(rec.LSN)
	}
	n.records.Add(1)
	n.advance(rec.LSN)
	return nil
}

// hasConstraint reports whether the engine currently has con installed.
func hasConstraint(eng *core.Engine, con access.Constraint) bool {
	key := con.Key()
	for _, c := range eng.AccessSnapshot().Constraints {
		if c.Key() == key {
			return true
		}
	}
	return false
}

// journal appends rec to the local log without applying it — the apply
// would be a no-op the engine refuses to journal itself (constraint
// dedup), but the follower must consume the LSN to stay in parity.
// Replay of constraint records is idempotent, so recovery tolerates the
// duplicate. Safe because the follower applies from a single goroutine
// with no other writers.
func journal(eng *core.Engine, rec wal.Record) error {
	lsn, err := eng.WAL().Append(wal.Record{Kind: rec.Kind, Con: rec.Con})
	if err == nil && lsn != rec.LSN {
		return fmt.Errorf("follower: journal assigned LSN %d, want %d", lsn, rec.LSN)
	}
	return err
}

// advance publishes a new applied watermark and wakes WaitLSN blockers.
func (n *Node) advance(lsn uint64) {
	n.applied.Store(lsn)
	n.mu.Lock()
	if n.notify != nil {
		close(n.notify)
		n.notify = nil
	}
	n.mu.Unlock()
}

// touchContact records traffic from the primary for the stall check.
func (n *Node) touchContact() {
	n.mu.Lock()
	n.lastContact = time.Now()
	n.mu.Unlock()
}

// rebootstrap discards local log state and restarts from the primary's
// newest checkpoint: the follower fell so far behind that its position
// was pruned. The old engine keeps serving concurrent readers until the
// swap; the applied watermark only ever jumps forward.
func (n *Node) rebootstrap() error {
	old := n.eng.Load()
	_ = old.Close() // stop the old log's timers; queries keep working
	for _, pat := range []string{"wal-*.seg", "checkpoint-*.snap"} {
		matches, err := filepath.Glob(filepath.Join(n.cfg.DataDir, pat))
		if err != nil {
			return err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				return err
			}
		}
	}
	if err := n.fetchSnapshot(n.ctx); err != nil {
		return err
	}
	eng, err := n.openEngine()
	if err != nil {
		return err
	}
	n.eng.Store(eng)
	if st, ok := eng.DurabilityStats(); ok {
		n.advance(st.LastLSN)
		if st.LastLSN > n.primaryLSN.Load() {
			n.primaryLSN.Store(st.LastLSN)
		}
	}
	n.cfg.Logger.Info("follower re-bootstrapped", "id", n.cfg.ID, "applied", n.applied.Load())
	return nil
}

// WaitLSN blocks until the applied watermark reaches lsn or ctx ends —
// the read-your-writes fence behind QueryRequest.MinLSN.
func (n *Node) WaitLSN(ctx context.Context, lsn uint64) error {
	for {
		if n.applied.Load() >= lsn {
			return nil
		}
		n.mu.Lock()
		if n.notify == nil {
			n.notify = make(chan struct{})
		}
		ch := n.notify
		n.mu.Unlock()
		if n.applied.Load() >= lsn {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Stats returns the local engine's observability snapshot plus the
// follower-side replication view.
func (n *Node) Stats() core.Stats {
	st := n.eng.Load().Stats()
	n.mu.Lock()
	lc := n.lastContact
	n.mu.Unlock()
	st.Follower = &core.FollowerStats{
		Primary:            n.cfg.Primary,
		ID:                 n.cfg.ID,
		AppliedLSN:         n.applied.Load(),
		PrimaryLSN:         n.primaryLSN.Load(),
		Streaming:          n.streaming.Load(),
		LastContactSeconds: time.Since(lc).Seconds(),
		RecordsApplied:     n.records.Load(),
		Reconnects:         n.reconnects.Load(),
		SnapshotsFetched:   n.snapshots.Load(),
	}
	return st
}

// ResumedFrom returns the watermark recovered from local state at Open
// (0 when the follower bootstrapped from a downloaded snapshot).
func (n *Node) ResumedFrom() uint64 { return n.resumedFrom }

// AppliedLSN returns the applied watermark.
func (n *Node) AppliedLSN() uint64 { return n.applied.Load() }

// Health reports nil while the local engine is intact and the stream has
// seen traffic within StallAfter; otherwise the error describes the
// degradation (GET /healthz turns it into 503).
func (n *Node) Health() error {
	if err := n.eng.Load().Health(); err != nil {
		return err
	}
	n.mu.Lock()
	lc := n.lastContact
	n.mu.Unlock()
	if since := time.Since(lc); since > n.cfg.StallAfter {
		return fmt.Errorf("follower: no contact with primary for %v (threshold %v)",
			since.Round(time.Millisecond), n.cfg.StallAfter)
	}
	return nil
}

// Close stops the tail loop, waits for it, and closes the local engine.
func (n *Node) Close() error {
	n.cancel()
	<-n.done
	return n.eng.Load().Close()
}

// Schema returns the relational schema (fetched from the primary).
func (n *Node) Schema() ra.Schema { return n.eng.Load().Schema() }

// Parse parses a rule-language query against the follower's schema.
func (n *Node) Parse(src string) (ra.Query, error) { return n.eng.Load().Parse(src) }

// Execute runs a query against the local replica.
func (n *Node) Execute(q ra.Query, opts core.Options) (*exec.Table, *core.Report, error) {
	return n.eng.Load().Execute(q, opts)
}

// Insert fails with ErrReadOnly: write to the primary.
func (n *Node) Insert(rel string, t value.Tuple) (bool, error) { return false, ErrReadOnly }

// Delete fails with ErrReadOnly: write to the primary.
func (n *Node) Delete(rel string, t value.Tuple) (bool, error) { return false, ErrReadOnly }

// AddConstraints fails with ErrReadOnly: install constraints on the
// primary and they replicate here.
func (n *Node) AddConstraints(cs ...access.Constraint) error { return ErrReadOnly }

// RemoveConstraint refuses (read-only) and reports false.
func (n *Node) RemoveConstraint(c access.Constraint) bool { return false }

// AccessSnapshot returns the replicated access schema.
func (n *Node) AccessSnapshot() *access.Schema { return n.eng.Load().AccessSnapshot() }

// Version returns the local engine's data version.
func (n *Node) Version() uint64 { return n.eng.Load().Version() }

// CacheStats returns the local plan-cache counters.
func (n *Node) CacheStats() cache.Stats { return n.eng.Load().CacheStats() }

// SetPlanCacheCapacity resizes the local plan cache.
func (n *Node) SetPlanCacheCapacity(capacity int) { n.eng.Load().SetPlanCacheCapacity(capacity) }

// DBSize returns total tuples across the replica's base relations.
func (n *Node) DBSize() int64 { return n.eng.Load().DBSize() }

// IndexEntries returns total index entries on the replica.
func (n *Node) IndexEntries() int64 { return n.eng.Load().IndexEntries() }

// IVMStats returns the local materialized-answer counters: views are
// maintained on the follower by the replicated writes flowing through
// the normal apply path.
func (n *Node) IVMStats() ivm.Stats { return n.eng.Load().IVMStats() }

// SetIVMConfig enables (or disables) incremental view maintenance on the
// local replica. Purely local: each follower decides its own budget.
func (n *Node) SetIVMConfig(cfg ivm.Config) { n.eng.Load().SetIVMConfig(cfg) }

// WAL exposes the follower's local log: because it is in LSN parity with
// the primary, a follower can itself serve /wal/stream to downstream
// followers (cascading replication).
func (n *Node) WAL() *wal.Log { return n.eng.Load().WAL() }
