package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what the flags select for a run.
type config struct {
	seed    int64
	seconds float64 // measuring time of one pass
	outDir  string  // traces and scratch data directories
	// smoke shrinks a run to a check that everything works: one set-up
	// instead of three, a tenth of the traced script, and no serving-path
	// assertion (views are not all admitted within a 20 ms warm-up).
	smoke bool
	// openLoop adds the open-loop steps to http-hot's end-to-end pass.
	// They take twice as long as the closed-loop segments and their
	// metrics cannot appear in a single pass's result line, so the command
	// in BENCHMARK.json turns them off.
	openLoop bool
}

// setups is how many times the set-up phase runs; setup_s is their median.
func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return 3
}

// metricValue is one reported number. LeaveOneOut holds the same
// statistic with each of the run's segments (or set-ups) left out in turn,
// from which -compare estimates how far the value would move between runs.
type metricValue struct {
	Value       float64   `json:"value"`
	Unit        string    `json:"unit"`
	LeaveOneOut []float64 `json:"leave_one_out,omitempty"`
}

// passResult is the outcome of one pass (tracing off or on) of one workload.
type passResult struct {
	Workload     string                 `json:"workload"`
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
	Extras       map[string]metricValue `json:"extras,omitempty"`
	StreamDigest string                 `json:"stream_digest"`
	OracleDigest string                 `json:"oracle_digest"`
	// Problems lists what made the pass incorrect, for the human reader.
	Problems []string `json:"problems,omitempty"`
}

// metric records one of the pass's BENCHMARK.json metrics, extra one that
// only some workloads have; loo is the value with each segment left out.
func (r *passResult) metric(name string, v float64, loo []float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), LeaveOneOut: loo}
}

func (r *passResult) extra(name string, v float64, loo []float64) {
	r.Extras[name] = metricValue{Value: v, Unit: unitOf(name), LeaveOneOut: loo}
}

func (r *passResult) fail(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// bench is a workload standing ready to run: the service under test and
// the inputs derived from its (then still pristine) database.
type bench struct {
	svc *service
	in  *inputs
}

// scratchDir returns a fresh directory under the output directory.
func scratchDir(cfg config, name string) (string, error) {
	base := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// setUp is the set-up phase that setup_s times: generate the data and its
// indices, derive pools, write rows and oracle answers, stand the service
// up. Warm-up is not part of it.
func setUp(spec workloadSpec, cfg config) (*bench, error) {
	ds, db, err := generate()
	if err != nil {
		return nil, err
	}
	in, err := buildInputs(spec.stream, ds.Schema, db, cfg.seed)
	if err != nil {
		return nil, err
	}
	svc, err := newService(spec.kind, ds, db, cfg)
	if err != nil {
		return nil, err
	}
	return &bench{svc: svc, in: in}, nil
}

// runEndToEnd is the tracing-off pass: set up (cfg.setups() times, keeping
// the last), warm up, measure for cfg.seconds, check answers at
// quiescence, and for a durable engine recover and check again.
func runEndToEnd(spec workloadSpec, cfg config) (*passResult, error) {
	var (
		b      *bench
		setups []float64
	)
	for i := 0; i < cfg.setups(); i++ {
		if b != nil {
			if err := b.svc.close(); err != nil {
				return nil, err
			}
		}
		// Every set-up starts from a collected heap, so the first one is
		// not the only one that pays for growing it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = setUp(spec, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = b.svc.close() }() // a second close after the recovery check is harmless

	res := &passResult{
		Workload: spec.name, Correct: true,
		Metrics:      map[string]metricValue{},
		Extras:       map[string]metricValue{},
		StreamDigest: streamDigest(b.in, cfg.seed, numClients),
		OracleDigest: oracleDigest(b.in),
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	l := newLoop(b.svc, b.in, cfg.seed, numClients)
	m, err := l.measure(total/8, total)
	if err != nil {
		return nil, err
	}
	var steps []*openRate
	if spec.kind == kindHTTP && cfg.openLoop {
		steps = openLoop(b, cfg, total/8)
	}
	heap := heapMB()

	res.Attempted, res.Failed = m.all.ops, m.all.failed
	if m.all.err != nil {
		res.fail("op failed: %v", m.all.err)
	}
	asked, bad, cerr := b.svc.check(b.in)
	res.Attempted += int64(asked)
	res.Failed += int64(bad)
	if cerr != nil {
		res.fail("quiescent check: %d of %d answers wrong: %v", bad, asked, cerr)
	}
	if spec.paths != nil && !cfg.smoke {
		if err := spec.paths(m.paths()); err != nil {
			res.fail("serving path: %v", err)
		}
	}

	// stat records f over all segments, and over all but one in turn.
	stat := func(record func(string, float64, []float64), name string, f func([]*segment) float64) {
		record(name, f(m.segs), leaveOneOut(m.segs, f))
	}
	res.metric("setup_s", median(setups), leaveOneOut(setups, median))
	stat(res.metric, "ops_per_s", statOpsPerSec)
	stat(res.metric, "query_p50_us", statQuery(0.50))
	stat(res.metric, "query_p99_us", statQuery(0.99))
	stat(res.metric, "allocs_per_op", statAllocs)
	res.metric("heap_mb", heap, nil)

	if q, ok := m.all.queryH.tail(); ok {
		// The highest percentile with ten samples beyond it, whichever it is.
		res.extra(fmt.Sprintf("query_tail_us@p%g", 100*q), usOf(m.all.queryH.quantile(q)), nil)
	}
	res.extra("sample_count", float64(m.all.queryH.n), nil)
	if m.all.writeH.n > 0 {
		stat(res.extra, "write_p50_us", statWrite(0.50))
		stat(res.extra, "write_p99_us", statWrite(0.99))
	}
	for _, st := range steps {
		all := st.pooled()
		res.Attempted += int64(all.sent + all.failed)
		p99 := func(parts []*openStep) float64 { return usOf(poolSteps(parts).lat.quantile(0.99)) }
		if st.rate == openReportRate {
			res.extra("open_p99_us", p99(st.parts), leaveOneOut(st.parts, p99))
		}
		res.extra(fmt.Sprintf("open_p50_us@%g", st.rate), usOf(all.lat.quantile(0.50)), nil)
		res.extra(fmt.Sprintf("open_p99_us@%g", st.rate), p99(st.parts), nil)
		res.extra(fmt.Sprintf("gen_late_p99_us@%g", st.rate), usOf(all.late.quantile(0.99)), nil)
	}
	if steps != nil {
		res.extra("max_rate_ok", maxRateOK(steps), nil)
	}
	if spec.kind == kindDurable {
		if err := recoverAndCheck(b, cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// openLoop offers the workload's stream at each of openRates, each rate in
// openParts consecutive parts of partDur, on numClients connections. A
// fresh stream (client index numClients) keeps the steps off the
// closed-loop clients' sequences.
func openLoop(b *bench, cfg config, partDur time.Duration) []*openRate {
	st := newStream(b.in, cfg.seed, numClients, numClients+1)
	var rates []*openRate
	for _, rate := range openRates {
		or := &openRate{rate: rate}
		for part := 0; part < openParts; part++ {
			n := int(rate * partDur.Seconds())
			ops := make([]op, n)
			for i := range ops {
				ops[i], _ = st.next()
			}
			or.parts = append(or.parts, runOpenStep(wallClock{}, rate, n, numClients, 2*partDur, func(i int) error {
				if ops[i].write {
					return b.svc.write(b.in.writes[ops[i].idx])
				}
				_, err := b.svc.query(b.in.pool[ops[i].idx])
				return err
			}))
		}
		rates = append(rates, or)
	}
	return rates
}

// recoverAndCheck closes the durable engine, reopens its directory over a
// freshly generated database (which recovery must ignore in favour of the
// checkpoint and the log) and re-checks every answer: an acknowledged
// write that the log lost, or replayed twice, shows up here.
func recoverAndCheck(b *bench, cfg config, res *passResult) error {
	if st, ok := b.svc.eng.DurabilityStats(); ok {
		res.extra("wal_checkpoints", float64(st.Checkpoints), nil)
	}
	_, _, bytesPer, err := scratchLog(b.in, cfg, 1)
	if err != nil {
		return err
	}
	res.extra("log_bytes_per_write", bytesPer, nil)
	// A checkpoint now waits out any background one still running and
	// leaves no replay debt; writing the write pool once more after it
	// gives recovery a fixed amount of log to replay on top of the
	// snapshot, whatever the run's throughput was.
	if err := b.svc.eng.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before close: %w", err)
	}
	for _, w := range b.in.writes {
		if err := b.svc.write(w); err != nil {
			return fmt.Errorf("write before close: %w", err)
		}
	}
	seconds, asked, bad, err := reopen(b.svc, b.in.sample)
	if err != nil {
		return err
	}
	res.extra("recover_s", seconds, nil)
	res.Attempted += int64(asked)
	res.Failed += int64(bad)
	if bad > 0 {
		res.fail("check after recovery: %d of %d answers differ from the oracle's", bad, asked)
	}
	return nil
}
