package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// This file is the primary side of WAL replication: GET /wal/snapshot
// streams the newest checkpoint file verbatim for follower bootstrap,
// GET /wal/stream tails the log as chunked CRC frames from ?after=LSN,
// and POST /wal/ack lets followers report their applied watermark for the
// /stats replication block. The wire format of the stream is exactly the
// on-disk segment format, so followers verify and decode it with the same
// code that reads their own log.

// walStreamHeartbeat is how often an idle stream emits a heartbeat frame
// (keeping the connection alive and shipping the primary's last LSN to
// caught-up followers).
const walStreamHeartbeat = time.Second

// walSource is implemented by core.Service implementations backed by a
// write-ahead log that replication can tail (core.Engine, shard.Router,
// and the follower node itself — cascading a stream re-serves the same
// LSN sequence). WAL may return nil when durability is off. /insert and
// /delete read the log's last LSN through it for MutateResponse.LSN.
type walSource interface {
	WAL() *wal.Log
}

// replRegistry tracks follower connections and acks for /stats. The zero
// value is ready to use.
type replRegistry struct {
	mu        sync.Mutex
	followers map[string]*followerConn
	snapshots int64
}

// followerConn is the primary's view of one follower, keyed by the id the
// follower presents on /wal/stream and /wal/ack.
type followerConn struct {
	id        string
	connected bool
	since     time.Time
	lastSeen  time.Time
	sentLSN   uint64
	ackedLSN  uint64
}

// connect registers (or reconnects) follower id and returns its entry.
func (rr *replRegistry) connect(id string) *followerConn {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.followers == nil {
		rr.followers = map[string]*followerConn{}
	}
	fc := rr.followers[id]
	if fc == nil {
		fc = &followerConn{id: id}
		rr.followers[id] = fc
	}
	fc.connected = true
	fc.since = time.Now()
	fc.lastSeen = fc.since
	return fc
}

// disconnect marks follower id as gone (its acked LSN is retained for
// lag reporting until it reconnects).
func (rr *replRegistry) disconnect(id string) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if fc := rr.followers[id]; fc != nil {
		fc.connected = false
		fc.lastSeen = time.Now()
	}
}

// sent records the last LSN written to follower id's stream.
func (rr *replRegistry) sent(id string, lsn uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if fc := rr.followers[id]; fc != nil {
		fc.sentLSN = lsn
		fc.lastSeen = time.Now()
	}
}

// ack records follower id's applied watermark (monotone).
func (rr *replRegistry) ack(id string, lsn uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.followers == nil {
		rr.followers = map[string]*followerConn{}
	}
	fc := rr.followers[id]
	if fc == nil {
		fc = &followerConn{id: id}
		rr.followers[id] = fc
	}
	if lsn > fc.ackedLSN {
		fc.ackedLSN = lsn
	}
	fc.lastSeen = time.Now()
}

// snapshotServed counts one bootstrap download.
func (rr *replRegistry) snapshotServed() {
	rr.mu.Lock()
	rr.snapshots++
	rr.mu.Unlock()
}

// walLog returns the service's log, or nil when the service is not a
// durable wal source.
func (s *Server) walLog() *wal.Log {
	if src, ok := s.eng.(walSource); ok {
		return src.WAL()
	}
	return nil
}

// handleWALStream serves GET /wal/stream?after=LSN[&id=NAME]: every log
// record past after as CRC frames, then live appends as they land, with
// heartbeat frames while idle. The response never ends on its own — the
// follower disconnects (or the server shuts down). Answers 501 without a
// WAL and 410 Gone when after predates the oldest retained segment (the
// follower must re-bootstrap from /wal/snapshot).
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	log := s.walLog()
	if log == nil {
		writeError(w, http.StatusNotImplemented,
			errors.New("serving layer is not durable; start with -data-dir to enable replication"))
		return
	}
	var after uint64
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid \"after\": %w", err))
			return
		}
		after = n
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	// Fail fast on a pruned position before committing to a 200 stream:
	// the follower reads the status code to decide bootstrap vs resume.
	if oldest, ok := log.OldestLSN(); ok && after+1 < oldest {
		writeError(w, http.StatusGone,
			fmt.Errorf("records after %d already pruned (oldest retained LSN %d); re-bootstrap from /wal/snapshot", after, oldest))
		return
	}
	rc := http.NewResponseController(w)
	fc := s.repl.connect(id)
	defer s.repl.disconnect(id)
	s.cfg.Logger.Info("wal stream connected", "id", id, "after", after)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		return rc.Flush()
	}
	err := log.Tail(r.Context(), after, walStreamHeartbeat, func(rec wal.Record) error {
		frame, err := wal.EncodeFrame(rec)
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if rec.Kind != wal.KindHeartbeat {
			fc.noteSent(&s.repl, rec.LSN)
		}
		return nil
	}, flush)
	s.cfg.Logger.Info("wal stream closed", "id", id, "sent", fc.sentSnapshot(&s.repl), "err", err)
}

// noteSent updates the sent watermark under the registry lock.
func (fc *followerConn) noteSent(rr *replRegistry, lsn uint64) {
	rr.mu.Lock()
	fc.sentLSN = lsn
	fc.lastSeen = time.Now()
	rr.mu.Unlock()
}

// sentSnapshot reads the sent watermark under the registry lock.
func (fc *followerConn) sentSnapshot(rr *replRegistry) uint64 {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return fc.sentLSN
}

// handleWALSnapshot serves the newest checkpoint file verbatim (wal
// header + store snapshot) with the covered LSN in X-Checkpoint-LSN. A
// follower pipes the body into wal.InstallCheckpoint and recovers.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, r *http.Request) {
	log := s.walLog()
	if log == nil {
		writeError(w, http.StatusNotImplemented,
			errors.New("serving layer is not durable; start with -data-dir to enable replication"))
		return
	}
	// Retry once: the newest checkpoint can be pruned between listing and
	// open (an unlinked-but-open file keeps streaming fine; losing the
	// race before open does not).
	for attempt := 0; ; attempt++ {
		path, lsn, ok, err := wal.LatestCheckpoint(log.Dir())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no checkpoint available yet"))
			return
		}
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) && attempt == 0 {
				continue
			}
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		defer f.Close()
		s.repl.snapshotServed()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Checkpoint-LSN", strconv.FormatUint(lsn, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, f)
		return
	}
}

// handleWALAck records a follower's applied watermark: POST /wal/ack
// {"id": ..., "lsn": ...}. Purely observational (the /stats lag figures);
// a follower that never acks still replicates correctly.
func (s *Server) handleWALAck(w http.ResponseWriter, r *http.Request) {
	var req WALAckRequest
	if err := readBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"id\""))
		return
	}
	s.repl.ack(req.ID, req.LSN)
	writeJSON(w, http.StatusOK, struct{}{})
}

// replicationStats builds the primary-side /stats block: nil unless the
// service has a WAL and at least one follower has ever connected or
// bootstrapped.
func (s *Server) replicationStats() *ReplicationWire {
	log := s.walLog()
	if log == nil {
		return nil
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if len(s.repl.followers) == 0 && s.repl.snapshots == 0 {
		return nil
	}
	last := log.LastLSN()
	out := &ReplicationWire{SnapshotsServed: s.repl.snapshots}
	now := time.Now()
	for _, fc := range s.repl.followers {
		fw := FollowerConnWire{
			ID:        fc.id,
			Connected: fc.connected,
			SentLSN:   fc.sentLSN,
			AckedLSN:  fc.ackedLSN,
		}
		if fc.ackedLSN < last {
			fw.LagRecords = int64(last - fc.ackedLSN)
		}
		fw.LagBytes = log.BytesSince(fc.ackedLSN)
		if fc.connected {
			fw.ConnectedSeconds = now.Sub(fc.since).Seconds()
		} else if !fc.lastSeen.IsZero() {
			fw.LastSeenSeconds = now.Sub(fc.lastSeen).Seconds()
		}
		out.Followers = append(out.Followers, fw)
	}
	sortFollowerWires(out.Followers)
	return out
}

// sortFollowerWires orders the follower list by id for stable output.
func sortFollowerWires(fs []FollowerConnWire) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].ID < fs[j-1].ID; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
