// Package server is the HTTP/JSON network front end over the serving
// layer: it exposes a core.Engine — the bounded-evaluation pipeline of
// conf_sigmod_CaoF16 (Fig. 4) behind the PR 1 plan cache — to remote
// clients, turning the in-process engine into the long-lived multi-client
// service that bounded evaluation is designed for (repeated queries over a
// mutating database, answered by fetching a bounded fraction of it).
//
// Endpoints:
//
//	POST /query    execute a rule-language query; rows + plan/cache/boundedness metadata
//	POST /insert   insert a batch of tuples into one relation
//	POST /delete   delete a batch of tuples from one relation
//	POST /reshard  change the shard count of a sharded serving layer online
//	GET  /schema   relational schema + installed access constraints
//	GET  /stats    plan-cache counters, DB/index sizes, request accounting,
//	               ring epoch + migration progress when sharded
//	GET  /healthz  liveness probe
//
// The server preserves the serving-layer invariant: tuple writes through
// /insert and /delete keep every cached plan valid (the indices I_A are
// maintained incrementally, Proposition 12), so the engine version reported
// in responses does not change under data churn; only access-schema
// changes bump it and purge the cache.
//
// Concurrency is bounded by a semaphore on /query (MaxInFlight); each
// request runs under a deadline (RequestTimeout) and is logged
// structurally via log/slog. Shutdown drains in-flight requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value is usable: DefaultConfig fills in
// every field New would otherwise default.
type Config struct {
	// Addr is the listen address for Start ("host:port"; ":0" picks a free
	// port). Ignored by Serve, which takes its own listener.
	Addr string
	// RequestTimeout bounds each request end to end; a /query that
	// overruns it answers 504. 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing /query requests; excess
	// requests wait their turn until their deadline. 0 means
	// 4×GOMAXPROCS; negative means unlimited.
	MaxInFlight int
	// MaxRows is the default row cap on /query responses when the request
	// does not set one. 0 means DefaultMaxRows; negative means unlimited.
	MaxRows int
	// Options is the base execution options for /query; the per-request
	// NoCache field overrides it. The zero Options means
	// core.DefaultOptions().
	Options *core.Options
	// Logger receives one structured line per request. nil means
	// slog.Default.
	Logger *slog.Logger
}

// Defaults for Config fields left zero.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxRows        = 1000
)

// DefaultConfig returns the configuration New applies over a zero Config.
func DefaultConfig() Config {
	opts := core.DefaultOptions()
	return Config{
		Addr:           ":8080",
		RequestTimeout: DefaultRequestTimeout,
		MaxInFlight:    4 * runtime.GOMAXPROCS(0),
		MaxRows:        DefaultMaxRows,
		Options:        &opts,
	}
}

// Server serves a core.Engine over HTTP. Create one with New, start it
// with Start (own listener) or Serve (caller's listener), stop it with
// Shutdown. A Server is safe for concurrent use and for concurrent
// engine access by other parties — all engine state it reads is behind
// the engine's own synchronization.
type Server struct {
	eng  core.Service
	cfg  Config
	base core.Options
	mux  *http.ServeMux
	hs   *http.Server

	// sem bounds in-flight /query executions; nil = unlimited.
	sem chan struct{}
	// canon caches the canonical rule text of /query responses keyed by
	// the raw request text, so the hot path (repeated queries, the plan
	// cache's own regime) skips re-canonicalizing and re-formatting.
	// Safe to cache unconditionally: the rendering depends only on the
	// query and the relational schema, which is fixed for the engine's
	// lifetime — never on data or access-schema state.
	canon *cache.Cache

	start    time.Time
	requests atomic.Int64
	inFlight atomic.Int64
	// resharding serializes POST /reshard at the HTTP layer: the router's
	// own in-progress error is check-then-act from out here (a background
	// call is accepted before the migration becomes observable), so the
	// overlap answer 409 is enforced with this flag instead.
	resharding atomic.Bool

	listener net.Listener
	addrCh   chan string

	// repl tracks connected followers and snapshot downloads for the
	// /stats replication block. Purely observational: stream correctness
	// never depends on it (a follower resumes from its own local LSN).
	repl replRegistry

	// hookBeforeExecute, when set, runs in the execution goroutine before
	// the engine is called. Tests use it to hold queries in flight
	// deterministically; it is never set in production.
	hookBeforeExecute func()
}

// New builds a Server over eng — a single *core.Engine or any other
// core.Service implementation, such as the sharded router of
// internal/shard; the front end is agnostic to which one it is serving.
// Zero fields of cfg take the DefaultConfig values.
func New(eng core.Service, cfg Config) *Server {
	def := DefaultConfig()
	if cfg.Addr == "" {
		cfg.Addr = def.Addr
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = def.MaxInFlight
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = def.MaxRows
	}
	if cfg.Options == nil {
		cfg.Options = def.Options
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		eng:    eng,
		cfg:    cfg,
		base:   *cfg.Options,
		start:  time.Now(),
		addrCh: make(chan string, 1),
		canon:  cache.New(1024, 8),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("POST /reshard", s.handleReshard)
	s.mux.HandleFunc("GET /schema", s.handleSchema)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /wal/stream", s.handleWALStream)
	s.mux.HandleFunc("GET /wal/snapshot", s.handleWALSnapshot)
	s.mux.HandleFunc("POST /wal/ack", s.handleWALAck)
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the server's root handler: the route mux wrapped with
// the per-request deadline and the structured request log.
func (s *Server) Handler() http.Handler {
	return s.logged(s.timed(s.mux))
}

// Start listens on cfg.Addr and serves until Shutdown. It blocks like
// http.Server.ListenAndServe and returns http.ErrServerClosed after a
// clean shutdown. Addr reports the bound address once listening.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown, blocking like http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error {
	s.listener = ln
	select {
	case s.addrCh <- ln.Addr().String():
	default:
	}
	s.cfg.Logger.Info("server listening", "addr", ln.Addr().String())
	return s.hs.Serve(ln)
}

// Addr blocks until the server is listening and returns its bound address
// ("127.0.0.1:54321"). It is intended for tests and in-process harnesses
// that Start the server on ":0" in a goroutine.
func (s *Server) Addr() string {
	addr := <-s.addrCh
	// Re-stock so repeated calls keep answering.
	select {
	case s.addrCh <- addr:
	default:
	}
	return addr
}

// Shutdown stops accepting connections and waits for in-flight requests
// to finish, up to ctx's deadline (http.Server.Shutdown semantics).
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Logger.Info("server shutting down",
		"requests", s.requests.Load(), "inFlight", s.inFlight.Load())
	return s.hs.Shutdown(ctx)
}

// timed wraps next with the per-request deadline. The replication stream
// is exempt: it is a deliberately long-lived response that ends when the
// follower disconnects, not when a request deadline fires.
func (s *Server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/wal/stream" {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer, so
// the replication stream can flush through the logging wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// logged wraps next with request counting and one slog line per request.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", time.Since(t0),
			"remote", r.RemoteAddr,
		)
	})
}

// writeJSON answers with a JSON body and the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// writeError answers with an ErrorResponse.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// readBody decodes a JSON request body into dst, rejecting trailing data.
func readBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// acquire claims a /query slot, waiting until the request deadline. It
// reports whether the slot was obtained; on false the caller must not
// release.
func (s *Server) acquire(ctx context.Context) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// queryOutcome carries an Execute result across the timeout boundary.
type queryOutcome struct {
	resp *QueryResponse
	code int
	err  error
}

// handleQuery parses, executes and renders one query. Execution runs in
// its own goroutine so a deadline overrun can answer 504 immediately; the
// abandoned execution finishes in the background and its slot is released
// only then, so MaxInFlight still bounds true engine concurrency.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := readBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"query\""))
		return
	}
	ctx := r.Context()
	if !s.acquire(ctx) {
		if clientGone(ctx) {
			writeError(w, statusClientClosedRequest,
				errors.New("client closed the request while waiting for a slot"))
			return
		}
		writeError(w, http.StatusServiceUnavailable,
			errors.New("server at capacity; retry later"))
		return
	}
	done := make(chan queryOutcome, 1)
	go func() {
		defer s.release()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if s.hookBeforeExecute != nil {
			s.hookBeforeExecute()
		}
		done <- s.runQuery(ctx, req)
	}()
	select {
	case out := <-done:
		if out.err != nil {
			writeError(w, out.code, out.err)
			return
		}
		writeJSON(w, http.StatusOK, out.resp)
	case <-ctx.Done():
		if clientGone(ctx) {
			// The connection is gone; the status only reaches the log.
			writeError(w, statusClientClosedRequest,
				errors.New("client closed the request mid-execution"))
			return
		}
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("query did not finish within %v", s.cfg.RequestTimeout))
	}
}

// statusClientClosedRequest labels requests whose client disconnected or
// canceled before the server finished — nginx's non-standard 499, kept
// distinct from 503/504 so operator dashboards don't count client
// disconnects as server capacity or timeout incidents.
const statusClientClosedRequest = 499

// clientGone reports whether ctx ended because the caller went away
// (disconnect, client-side cancel) rather than because the server's
// per-request deadline expired.
func clientGone(ctx context.Context) bool {
	return !errors.Is(context.Cause(ctx), context.DeadlineExceeded)
}

// lsnWaiter is implemented by core.Service implementations that apply a
// replicated log asynchronously (the follower node): WaitLSN blocks until
// the applied watermark reaches lsn or ctx ends. The front end uses it
// for the read-your-writes fence of QueryRequest.MinLSN.
type lsnWaiter interface {
	WaitLSN(ctx context.Context, lsn uint64) error
}

// runQuery is the synchronous body of handleQuery. ctx carries the
// request deadline into the MinLSN fence; execution itself is bounded by
// the outer select in handleQuery.
func (s *Server) runQuery(ctx context.Context, req QueryRequest) queryOutcome {
	if req.MinLSN > 0 {
		// Read-your-writes fence: on a follower, block until the applied
		// watermark covers the LSN the client observed on its last write.
		// A primary (anything without an asynchronous apply watermark)
		// trivially satisfies the fence — the LSN was assigned there.
		if fw, ok := s.eng.(lsnWaiter); ok {
			if err := fw.WaitLSN(ctx, req.MinLSN); err != nil {
				return queryOutcome{code: http.StatusGatewayTimeout,
					err: fmt.Errorf("replica did not reach LSN %d before the deadline: %w", req.MinLSN, err)}
			}
		}
	}
	q, err := s.eng.Parse(req.Query)
	if err != nil {
		return queryOutcome{code: http.StatusUnprocessableEntity, err: err}
	}
	opts := s.base
	if req.NoCache {
		opts.Cache = false
	}
	table, rep, err := s.eng.Execute(q, opts)
	if err != nil {
		return queryOutcome{code: http.StatusInternalServerError, err: err}
	}

	resp := &QueryResponse{
		Columns:       table.Cols,
		RowCount:      table.Len(),
		Covered:       rep.Covered,
		Rewritten:     rep.Rewritten,
		RewriteRules:  rep.RewriteRules,
		Bounded:       rep.Bounded,
		CacheHit:      rep.CacheHit,
		Materialized:  rep.Materialized,
		PlanLength:    rep.Stats.PlanLength,
		Accessed:      rep.Stats.Accessed,
		Fetched:       rep.Stats.Fetched,
		Scanned:       rep.Stats.Scanned,
		ElapsedMicros: rep.Stats.Duration.Microseconds(),
		CompileMicros: (rep.CheckTime + rep.MinimizeTime + rep.PlanTime).Microseconds(),
		Version:       rep.Version,
	}
	resp.Canonical = s.canonicalText(req.Query, q)

	limit := s.cfg.MaxRows
	if req.MaxRows != 0 {
		limit = req.MaxRows
	}
	rows := table.Sorted()
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
		resp.Truncated = true
	}
	resp.Rows = make([][]wireValue, len(rows))
	for i, row := range rows {
		resp.Rows[i] = encodeTuple(row)
	}
	return queryOutcome{resp: resp, code: http.StatusOK}
}

// canonicalText renders q's canonical form back into rule syntax, cached
// by the raw request text. The text is advisory: queries outside the rule
// fragment cache and return "".
func (s *Server) canonicalText(src string, q ra.Query) string {
	if v, ok := s.canon.Get(src); ok {
		return v.(string)
	}
	var text string
	if canon, err := ra.Canonical(q, s.eng.Schema()); err == nil {
		if t, err := parser.Format(canon, s.eng.Schema()); err == nil {
			text = t
		}
	}
	s.canon.Put(src, text)
	return text
}

// handleInsert applies a tuple-insert batch.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, s.eng.Insert)
}

// handleDelete applies a tuple-delete batch.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, s.eng.Delete)
}

// handleMutate is the shared body of /insert and /delete. Tuple writes
// deliberately do not touch the plan cache: incremental ⟨A, I_A⟩
// maintenance keeps every cached plan valid (Proposition 12), which the
// unchanged Version in the response makes observable.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request,
	apply func(string, value.Tuple) (bool, error)) {
	var req MutateRequest
	if err := readBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Relation == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"relation\""))
		return
	}
	applied := 0
	for i, wt := range req.Tuples {
		if err := r.Context().Err(); err != nil {
			status := http.StatusGatewayTimeout
			if clientGone(r.Context()) {
				status = statusClientClosedRequest
			}
			writeError(w, status,
				fmt.Errorf("mutation batch interrupted after %d of %d tuples", i, len(req.Tuples)))
			return
		}
		changed, err := apply(req.Relation, decodeTuple(wt))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("tuple %d: %w", i, err))
			return
		}
		if changed {
			applied++
		}
	}
	resp := MutateResponse{
		Relation:  req.Relation,
		Requested: len(req.Tuples),
		Applied:   applied,
		Version:   s.eng.Version(),
	}
	if d, ok := s.eng.(durabler); ok {
		// The log LSN after the batch: a client that stamps it as MinLSN
		// on a follower read is guaranteed to observe this batch.
		if ws, on := d.DurabilityStats(); on {
			resp.LSN = ws.LastLSN
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSchema renders the relational schema and the installed access
// schema from a lock-consistent snapshot.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	A := s.eng.AccessSnapshot()
	resp := SchemaResponse{
		Relations:   map[string][]string{},
		Constraints: make([]WireConstraint, 0, A.Len()),
		Version:     s.eng.Version(),
	}
	for _, rel := range s.eng.Schema().Relations() {
		attrs, err := s.eng.Schema().Attrs(rel)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Relations[rel] = attrs
	}
	for _, c := range A.Constraints {
		resp.Constraints = append(resp.Constraints, WireConstraint{
			Rel: c.Rel, X: c.X, Y: c.Y, N: c.N,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// perShardStatser is implemented by sharded core.Service implementations
// (the router of internal/shard) that can break /stats down by engine.
type perShardStatser interface {
	PerShardStats() []core.EngineStat
}

// resharder is implemented by core.Service implementations that can
// change their shard count online (the router of internal/shard). The
// front end exposes it as POST /reshard and folds RingStatus into /stats.
type resharder interface {
	Reshard(ctx context.Context, targetN int) (*shard.ReshardReport, error)
	RingStatus() shard.RingStatus
}

// writePather is implemented by core.Service implementations with an
// asynchronous broadcast write pipeline, a routing layer and residue
// routes answered over routed reads (the router of internal/shard);
// /stats folds all three counter sets in for operators.
type writePather interface {
	ApplyQueueStats() shard.ApplyQueueStats
	RouteStats() shard.RouteStats
	ResidueStats() shard.ResidueStats
}

// healther is implemented by core.Service implementations that can fail
// partially (a durable engine or router whose log or apply pipeline hit
// an error). A non-nil Health turns GET /healthz into 503 "degraded"
// with the first retained error.
type healther interface {
	Health() error
}

// durabler is implemented by core.Service implementations backed by a
// write-ahead log (core.OpenDurable, shard.OpenDurable); /stats folds
// the log counters in for operators.
type durabler interface {
	DurabilityStats() (wal.Stats, bool)
}

// ivmStatser is implemented by core.Service implementations that
// maintain materialized answers for hot fingerprints (core.Engine,
// shard.Router); /stats folds the view counters in for operators.
type ivmStatser interface {
	IVMStats() ivm.Stats
}

// handleReshard is the admin endpoint for online rebalancing. It answers
// 501 on an unsharded serving layer and 409 while another move is in
// flight. With "wait" the move runs under the request deadline (abort on
// timeout, so operators should raise the server timeout for big moves);
// without it the move runs in the background under the server's own
// lifetime and progress is visible in GET /stats.
func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.eng.(resharder)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			errors.New("serving layer is not sharded; start with -shards to enable /reshard"))
		return
	}
	var req ReshardRequest
	if err := readBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Shards < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("\"shards\" must be >= 1, got %d", req.Shards))
		return
	}
	if !s.resharding.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, shard.ErrReshardInProgress)
		return
	}
	if !req.Wait {
		s.cfg.Logger.Info("reshard accepted", "target", req.Shards)
		go func() {
			defer s.resharding.Store(false)
			if rep, err := rs.Reshard(context.Background(), req.Shards); err != nil {
				s.cfg.Logger.Error("reshard failed", "target", req.Shards, "err", err)
			} else {
				s.cfg.Logger.Info("reshard complete", "from", rep.From, "to", rep.To,
					"moved", rep.Moved, "seeded", rep.Seeded, "epoch", rep.Epoch,
					"duration", rep.Duration)
			}
		}()
		writeJSON(w, http.StatusAccepted, ReshardResponse{Accepted: true, To: req.Shards})
		return
	}
	rep, err := rs.Reshard(r.Context(), req.Shards)
	s.resharding.Store(false)
	switch {
	case errors.Is(err, shard.ErrReshardInProgress):
		// A move started outside this server (in-process caller).
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("reshard aborted and rolled back: %w", err))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, ReshardResponse{
		From:           rep.From,
		To:             rep.To,
		Moved:          rep.Moved,
		Seeded:         rep.Seeded,
		Epoch:          rep.Epoch,
		DurationMicros: rep.Duration.Microseconds(),
	})
}

// handleStats renders plan-cache counters and size/request accounting,
// plus a per-shard breakdown when the service is a sharded cluster.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Sample the apply queue before DBSize/IndexEntries: those fence (they
	// drain the queue for read-your-writes), and the depth gauge should
	// report the backlog as it stood when the request arrived, not after
	// the drain.
	var applyW *ApplyStatsWire
	var routesW *RouteStatsWire
	var residueW *ResidueStatsWire
	if wp, ok := s.eng.(writePather); ok {
		aq := wp.ApplyQueueStats()
		applyW = &ApplyStatsWire{
			Enqueued: aq.Enqueued,
			Applied:  aq.Applied,
			Depth:    aq.Depth,
			Batches:  aq.Batches,
			MaxBatch: aq.MaxBatch,
			Errors:   aq.Errors,
		}
		rt := wp.RouteStats()
		routesW = &RouteStatsWire{
			Single:    rt.Single,
			Scattered: rt.Scattered,
			Residue:   rt.Residue,
		}
		rd := wp.ResidueStats()
		residueW = &ResidueStatsWire{
			BroadcastRels: rd.BroadcastRels,
			Repartitions:  rd.Repartitions,
			BytesShipped:  rd.BytesShipped,
			Evaluated:     rd.Evaluated,
		}
	}
	var duraW *DurabilityWire
	if d, ok := s.eng.(durabler); ok {
		if ws, on := d.DurabilityStats(); on {
			duraW = &DurabilityWire{
				LastLSN:       ws.LastLSN,
				CheckpointLSN: ws.CheckpointLSN,
				Segments:      ws.Segments,
				SegmentBytes:  ws.SegmentBytes,
				Appends:       ws.Appends,
				Checkpoints:   ws.Checkpoints,
				Fsync:         ws.Fsync,
				Fsyncs:        ws.Fsyncs,
			}
			if ws.Fsyncs > 0 {
				duraW.FsyncMeanMicros = float64(ws.FsyncTotalMicros) / float64(ws.Fsyncs)
			}
		}
	}
	var ivmW *IVMStatsWire
	if iv, ok := s.eng.(ivmStatser); ok {
		st := iv.IVMStats()
		if st.Budget > 0 {
			ivmW = &IVMStatsWire{
				Materialized: st.Materialized,
				Budget:       st.Budget,
				Admitted:     st.Admitted,
				Evicted:      st.Evicted,
				Purged:       st.Purged,
				Rejected:     st.Rejected,
				Hits:         st.Hits,
				DeltaApplies: st.DeltaApplies,
				Fallbacks:    st.Fallbacks,
				Denied:       st.Denied,
				SeedFetched:  st.SeedFetched,
				SeedScanned:  st.SeedScanned,
				BuildMicros:  st.BuildNanos / 1e3,
			}
		}
	}
	cs := s.eng.CacheStats()
	resp := StatsResponse{
		Cache:         cacheWire(cs),
		Executor:      execWire(exec.ReadCounters()),
		Apply:         applyW,
		Routes:        routesW,
		Residue:       residueW,
		Durability:    duraW,
		IVM:           ivmW,
		Replication:   s.replicationStats(),
		Follower:      s.followerStats(),
		DBSize:        s.eng.DBSize(),
		IndexEntries:  s.eng.IndexEntries(),
		Version:       s.eng.Version(),
		Requests:      s.requests.Load(),
		InFlight:      s.inFlight.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if ps, ok := s.eng.(perShardStatser); ok {
		for _, st := range ps.PerShardStats() {
			resp.Shards = append(resp.Shards, ShardStatsWire{
				Label:        st.Label,
				Queries:      st.Queries,
				Cache:        cacheWire(st.Cache),
				DBSize:       st.DBSize,
				IndexEntries: st.IndexEntries,
				Version:      st.Version,
			})
		}
	}
	if rs, ok := s.eng.(resharder); ok {
		status := rs.RingStatus()
		ring := &RingStatsWire{Epoch: status.Epoch, Shards: status.Shards, Vnodes: status.Vnodes}
		if m := status.Migration; m != nil {
			ring.Migration = &MigrationWire{
				From: m.From, To: m.To, Rel: m.Rel, Phase: m.Phase, Moved: m.Moved, Total: m.Total,
			}
		}
		resp.Ring = ring
	}
	writeJSON(w, http.StatusOK, resp)
}

// execWire converts the executor's process-wide counters to their JSON
// form, deriving the mean batch width and the arena pool hit rate.
func execWire(c exec.Counters) ExecStatsWire {
	w := ExecStatsWire{
		Batches:    c.Batches,
		Rows:       c.Rows,
		ArenaGets:  c.ArenaGets,
		ArenaNews:  c.ArenaNews,
		ArenaBytes: c.ArenaBytesInUse,
		SigBuilt:   c.SigBuilt,
		SigHit:     c.SigHit,
		SigMiss:    c.SigMiss,
	}
	if c.Batches > 0 {
		w.RowsPerBatch = float64(c.Rows) / float64(c.Batches)
	}
	if c.ArenaGets > 0 {
		w.PoolHitRate = 1 - float64(c.ArenaNews)/float64(c.ArenaGets)
	}
	return w
}

// cacheWire converts plan-cache counters to their JSON form.
func cacheWire(cs cache.Stats) CacheStatsWire {
	return CacheStatsWire{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Purges:    cs.Purges,
		Entries:   cs.Entries,
		HitRate:   cs.HitRate(),
	}
}

// handleHealth answers the liveness probe: 200 "ok" normally, 503
// "degraded" once the serving layer has retained a write-pipeline
// failure (an apply-queue batch rejection, or a log append/fsync/checkpoint
// error on a durable engine). The first error sticks until restart —
// after it, acknowledged writes may be missing from the log, so
// orchestrators should replace the process and let recovery replay the
// intact prefix.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.eng.(healther); ok {
		if err := h.Health(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				HealthResponse{Status: "degraded", Error: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}
