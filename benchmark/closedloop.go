package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ivm"
)

// numClients is the number of closed-loop clients (and HTTP connections):
// the reference host has 2 CPUs, and the load generator shares them with
// the service under test.
const numClients = 2

// clientState is one closed-loop client: its stream, which continues
// across phases, and what it has measured in the current phase.
type clientState struct {
	st      *stream
	queryH  hist
	writeH  hist
	queries int64 // successful queries
	mat     int64 // ... served from a view
	hit     int64 // ... that ran a cached plan
	failed  int64
	err     error // first failure
	end     time.Time
}

// segment is what all clients together did in one timed phase.
type segment struct {
	ops     int64
	failed  int64
	wall    time.Duration
	queryH  hist
	writeH  hist
	queries int64
	mat     int64
	hit     int64
	mallocs uint64 // heap allocations of the whole process meanwhile
	err     error
}

func (g *segment) opsPerSec() float64 { return float64(g.ops) / g.wall.Seconds() }

// add pools o into g.
func (g *segment) add(o *segment) {
	g.ops += o.ops
	g.failed += o.failed
	g.wall += o.wall
	g.queries += o.queries
	g.mat += o.mat
	g.hit += o.hit
	g.mallocs += o.mallocs
	g.queryH.merge(&o.queryH)
	g.writeH.merge(&o.writeH)
	if g.err == nil {
		g.err = o.err
	}
}

// pooled is the segments taken as one.
func pooled(segs []*segment) *segment {
	all := &segment{}
	for _, g := range segs {
		all.add(g)
	}
	return all
}

// loop is a closed-loop load generator over one service.
type loop struct {
	svc     *service
	in      *inputs
	clients []*clientState
}

func newLoop(svc *service, in *inputs, seed int64, clients int) *loop {
	l := &loop{svc: svc, in: in}
	for c := 0; c < clients; c++ {
		l.clients = append(l.clients, &clientState{st: newStream(in, seed, c, clients)})
	}
	return l
}

// do runs one op against the service and records it on the client.
func (l *loop) do(c *clientState, o op) time.Time {
	var (
		q   *query
		err error
	)
	if !o.write {
		if l.in.adhoc != nil {
			q, err = l.in.adhocQuery(o.idx)
		} else {
			q = l.in.pool[o.idx]
		}
	}
	var res result
	t0 := time.Now()
	switch {
	case err != nil:
	case o.write:
		err = l.svc.write(l.in.writes[o.idx])
	default:
		res, err = l.svc.query(q)
	}
	t1 := time.Now()
	switch {
	case err != nil:
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("%s: %w", l.in.render(o), err)
		}
	case o.write:
		c.writeH.add(t1.Sub(t0))
	default:
		c.queryH.add(t1.Sub(t0))
		c.queries++
		if res.materialized {
			c.mat++
		} else if res.cacheHit {
			c.hit++
		}
	}
	return t1
}

// phase has every client run its stream for d (each finishes the op it is
// in when the time is up) and returns what they did.
func (l *loop) phase(d time.Duration) *segment {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range l.clients {
		c.queryH, c.writeH = hist{}, hist{}
		c.queries, c.mat, c.hit, c.failed, c.err = 0, 0, 0, 0, nil
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for {
				o, ok := c.st.next()
				if !ok {
					c.failed++
					if c.err == nil {
						c.err = fmt.Errorf("ad-hoc query space exhausted after %d ops", c.st.n)
					}
					break
				}
				if now := l.do(c, o); !now.Before(deadline) {
					break
				}
			}
			c.end = time.Now()
		}(c)
	}
	wg.Wait()
	g := &segment{}
	for _, c := range l.clients {
		g.queryH.merge(&c.queryH)
		g.writeH.merge(&c.writeH)
		g.queries += c.queries
		g.mat += c.mat
		g.hit += c.hit
		g.failed += c.failed
		if g.err == nil {
			g.err = c.err
		}
		if w := c.end.Sub(start); w > g.wall {
			g.wall = w
		}
	}
	g.ops = int64(g.queryH.n+g.writeH.n) + g.failed
	return g
}

// warmPasses is how often the warm-up asks every pool query: enough for
// the cheapest query (cost 2: one tuple accessed, plus one) to pass view
// admission, which wants MinHits repeats and hits x cost >= MinScore.
func warmPasses() int {
	cfg := ivm.DefaultConfig()
	return int(max(float64(cfg.MinHits), math.Ceil(cfg.MinScore/2)))
}

// warm brings the plan cache and view admission to steady state: every
// pool query is asked warmPasses times, client c taking every
// clients-th, so that from the first measured op every fingerprint is
// compiled and qualifies for a view. The passes run with materialization
// switched off and the service's own policy is restored afterwards:
// asking a pool larger than the view budget that often with views on would
// spend the warm-up building and evicting views (14 ms apiece), and giving
// it fewer repeats leaves admission ramping up all through the measured
// segments, so that a run's numbers depend on how long and how fast it
// ran. Ad-hoc streams have no pool and nothing to warm.
func warm(svc *service, in *inputs, clients int) error {
	if len(in.pool) == 0 {
		return nil
	}
	if svc.kind != kindNoIVM {
		svc.setIVM(ivm.Config{})
		defer svc.setIVM(ivm.DefaultConfig())
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < warmPasses(); round++ {
				for i := c; i < len(in.pool); i += clients {
					if _, err := svc.query(in.pool[i]); err != nil && errs[c] == nil {
						errs[c] = fmt.Errorf("warm-up %q: %w", in.pool[i].text, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// numSegments is how many equal timed segments a run's measuring time is
// cut into; rates are reported as the median segment.
const numSegments = 3

// measured is the outcome of the timed part of a run.
type measured struct {
	segs []*segment
	all  *segment // the segments pooled
}

// measure runs the pool warm-up, a discarded stream warm-up of warmup,
// and numSegments segments of total/numSegments each.
func (l *loop) measure(warmup, total time.Duration) (*measured, error) {
	if err := warm(l.svc, l.in, len(l.clients)); err != nil {
		return nil, err
	}
	if g := l.phase(warmup); g.err != nil {
		return nil, fmt.Errorf("warm-up: %w", g.err)
	}
	m := &measured{}
	var before, after runtime.MemStats
	for i := 0; i < numSegments; i++ {
		runtime.ReadMemStats(&before)
		g := l.phase(total / numSegments)
		runtime.ReadMemStats(&after)
		g.mallocs = after.Mallocs - before.Mallocs
		m.segs = append(m.segs, g)
	}
	m.all = pooled(m.segs)
	return m, nil
}

func (m *measured) paths() pathShares {
	q := float64(m.all.queries)
	if q == 0 {
		return pathShares{}
	}
	mat, hit := float64(m.all.mat), float64(m.all.hit)
	return pathShares{materialized: mat / q, cacheHit: hit / q, cold: (q - mat - hit) / q}
}

// The statistics a run reports, each a function of a set of segments: a
// rate is the median segment's, a latency percentile or an allocation
// count is taken over the segments pooled.
func statOpsPerSec(segs []*segment) float64 {
	rates := make([]float64, len(segs))
	for i, g := range segs {
		rates[i] = g.opsPerSec()
	}
	return median(rates)
}

func statAllocs(segs []*segment) float64 {
	all := pooled(segs)
	return float64(all.mallocs) / float64(all.ops)
}

func statQuery(q float64) func([]*segment) float64 {
	return func(segs []*segment) float64 { return usOf(pooled(segs).queryH.quantile(q)) }
}

func statWrite(q float64) func([]*segment) float64 {
	return func(segs []*segment) float64 { return usOf(pooled(segs).writeH.quantile(q)) }
}

// leaveOneOut evaluates f on xs with each element left out in turn. How
// much the results differ says how much f of all of xs would differ on
// another run (the jackknife): see spreadOf.
func leaveOneOut[T any](xs []T, f func([]T) float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		rest := append(append([]T(nil), xs[:i]...), xs[i+1:]...)
		out[i] = f(rest)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
