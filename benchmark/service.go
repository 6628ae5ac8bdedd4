package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// serviceKind names the five ways the benchmark stands the system up.
type serviceKind int

const (
	kindEngine   serviceKind = iota // one core.Engine, defaults
	kindNoIVM                       // one core.Engine with materialization off
	kindDurable                     // core.OpenDurable, fsync=interval
	kindSharded                     // shard.New, 4 shards, the dataset's ShardKeys
	kindHTTP                        // server.New over a default engine, loopback
	numShards    = 4
	dataScale    = 1.0
	dataSeed     = 1
	httpDeadline = 30 * time.Second
)

func (k serviceKind) String() string {
	return [...]string{"engine", "engine-noivm", "engine-durable", "sharded-4", "http"}[k]
}

// service is one running instance of the system plus the handles the
// benchmark reads its counters through.
type service struct {
	kind   serviceKind
	svc    core.Service   // in-process surface: the engine or the router
	eng    *core.Engine   // nil for kindSharded
	router *shard.Router  // kindSharded only
	client *server.Client // kindHTTP only
	base   string         // kindHTTP: "http://127.0.0.1:port"
	dir    string         // kindDurable: the data directory
	stop   func() error
}

// generate builds the AIRCA instance every workload runs on.
func generate() (*workload.Dataset, *store.DB, error) {
	ds := workload.Airca()
	db, err := ds.Gen(dataScale, dataSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("generating AIRCA: %w", err)
	}
	return ds, db, nil
}

// newService stands up one service of the given kind over db, which the
// service owns afterwards. A durable engine gets a fresh data directory
// under the output directory, removed again by close.
func newService(kind serviceKind, ds *workload.Dataset, db *store.DB, cfg config) (*service, error) {
	s := &service{kind: kind, stop: func() error { return nil }}
	if kind == kindSharded {
		r, err := shard.New(ds.Schema, ds.Access, db, shard.Spec{Shards: numShards, Keys: ds.ShardKeys})
		if err != nil {
			return nil, err
		}
		s.svc, s.router = r, r
		return s, nil
	}
	var err error
	if kind == kindDurable {
		if s.dir, err = scratchDir(cfg, "wal"); err != nil {
			return nil, err
		}
		s.eng, err = core.OpenDurable(ds.Schema, ds.Access, db, core.DurableConfig{
			Dir: s.dir, WAL: wal.Options{Fsync: wal.SyncInterval},
		})
	} else {
		s.eng, err = core.NewEngine(ds.Schema, ds.Access, db)
	}
	if err != nil {
		return nil, err
	}
	s.svc = s.eng
	switch kind {
	case kindNoIVM:
		s.eng.SetIVMConfig(ivm.Config{})
	case kindDurable:
		s.stop = s.eng.Close
	case kindHTTP:
		if err := s.listen(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// listen serves the engine on a loopback port and points a client at it.
func (s *service) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(s.eng, server.Config{Logger: slog.New(slog.DiscardHandler)})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = server.NewClient(s.base)
	s.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return nil
}

// close stops the service and removes a durable engine's directory.
func (s *service) close() error {
	err := s.stop()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// result is what a query op reports back: which serving path the call
// took, as core.Report (or its JSON rendering) classifies it.
type result struct {
	bounded, cacheHit, materialized bool
}

func (s *service) query(q *query) (result, error) {
	if s.client != nil {
		ctx, cancel := context.WithTimeout(context.Background(), httpDeadline)
		defer cancel()
		r, err := s.client.Query(ctx, q.text)
		if err != nil {
			return result{}, err
		}
		return result{bounded: r.Bounded, cacheHit: r.CacheHit, materialized: r.Materialized}, nil
	}
	_, rep, err := s.svc.Execute(q.q, core.DefaultOptions())
	if err != nil {
		return result{}, err
	}
	return result{bounded: rep.Bounded, cacheHit: rep.CacheHit, materialized: rep.Materialized}, nil
}

// adhocQuery parses ad-hoc query i. The parse happens in the client loop
// but outside the timed call, like a caller that builds its query first.
func (in *inputs) adhocQuery(i int) (*query, error) {
	text := in.adhoc.text(i)
	q, err := parser.Parse(text, in.schema)
	if err != nil {
		return nil, err
	}
	return &query{text: text, q: q}, nil
}

// write deletes and re-inserts one live row: the database is the generated
// one again afterwards, whichever way concurrent writes to the same row
// interleave, which is what makes the quiescent answer check possible.
func (s *service) write(w writeRow) error {
	if s.client != nil {
		ctx, cancel := context.WithTimeout(context.Background(), httpDeadline)
		defer cancel()
		if _, err := s.client.Delete(ctx, w.rel, []value.Tuple{w.t}); err != nil {
			return err
		}
		_, err := s.client.Insert(ctx, w.rel, []value.Tuple{w.t})
		return err
	}
	if _, err := s.svc.Delete(w.rel, w.t); err != nil {
		return err
	}
	_, err := s.svc.Insert(w.rel, w.t)
	return err
}

// answer asks q through the served path and digests the rows it returns.
func (s *service) answer(q *query) (answerDigest, error) {
	if s.client != nil {
		ctx, cancel := context.WithTimeout(context.Background(), httpDeadline)
		defer cancel()
		r, err := s.client.QueryOpts(ctx, server.QueryRequest{Query: q.text, MaxRows: -1})
		if err != nil {
			return answerDigest{}, err
		}
		return digestTuples(r.RowTuples()), nil
	}
	t, _, err := s.svc.Execute(q.q, core.DefaultOptions())
	if err != nil {
		return answerDigest{}, err
	}
	return digestTuples(t.Tuples()), nil
}

// check re-asks every sampled query at quiescence and counts the answers
// that differ from the oracle's (a failed ask counts as a mismatch).
func (s *service) check(in *inputs) (asked, mismatched int, first error) {
	for _, q := range in.sample {
		asked++
		d, err := s.answer(q)
		if err == nil && d != q.oracle {
			err = fmt.Errorf("answer of %q differs from the oracle's", q.text)
		}
		if err != nil {
			mismatched++
			if first == nil {
				first = err
			}
		}
	}
	return asked, mismatched, first
}
