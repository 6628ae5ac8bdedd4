package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// streamSpec says how a workload draws its ops.
type streamSpec struct {
	// keysPerShape sizes the query pool: len(poolShapes) × keysPerShape
	// distinct fingerprints. 0 selects the ad-hoc space, where no query
	// repeats.
	keysPerShape int
	// zipf > 1 draws pool ranks from a Zipf distribution with that
	// exponent; 0 draws them uniformly.
	zipf float64
	// writeShare is the probability that an op is a write.
	writeShare float64
}

// query is one pool entry: the rule text (what an HTTP client sends), its
// parsed form (what an in-process caller passes) and the oracle answer.
type query struct {
	shape  string
	consts [2]int64
	text   string
	q      ra.Query
	oracle answerDigest
	rows   int
}

// writeRow is one live row a write op deletes and re-inserts.
type writeRow struct {
	rel string
	t   value.Tuple
}

// op is one element of a client's stream: a query (idx into the pool, or
// into the ad-hoc space) or a write (idx into the write pool).
type op struct {
	write bool
	idx   int
}

// inputs is everything a run feeds the service under test, all derived
// from the generated database and the workload seed.
type inputs struct {
	spec   streamSpec
	schema ra.Schema
	pool   []*query    // pooled workloads
	adhoc  *adhocSpace // engine-adhoc
	// probe is the 40-query hot pool (len(poolShapes) shapes × hotKeys
	// keys) the layer probes of a traced run repeat; for pooled workloads
	// it is the head of pool.
	probe  []*query
	writes []writeRow
	// sample is what the quiescent answer check re-asks: the whole pool,
	// or adhocSample ad-hoc queries with their oracle answers.
	sample []*query
}

const (
	hotKeys     = 5   // keys per shape in the hot pool
	adhocSample = 200 // ad-hoc queries answer-checked per run
	// poolSeedSalt and friends keep the pool, the ad-hoc shuffle, the
	// write pool and each client's stream on independent random sequences
	// derived from the one workload seed.
	poolSeedSalt   = 0x706f6f6c
	adhocSeedSalt  = 0x6164686f
	writeSeedSalt  = 0x77726974
	clientSeedSalt = 0x636c6e74
)

// answerDigest identifies an answer as a set of rows.
type answerDigest [sha256.Size]byte

// digestTuples hashes the rows in sorted order, so two answers compare
// equal exactly when they hold the same set of tuples.
func digestTuples(rows []value.Tuple) answerDigest {
	keys := make([]string, len(rows))
	for i, t := range rows {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s", len(k), k)
	}
	var d answerDigest
	h.Sum(d[:0])
	return d
}

// newQuery parses text and computes its oracle answer on the pristine
// database with the conventional evaluator (what Engine.ExecuteBaseline
// runs), which shares no code path with bounded plans, views or routing.
func newQuery(text string, schema ra.Schema, db *store.DB) (*query, error) {
	q, err := parser.Parse(text, schema)
	if err != nil {
		return nil, fmt.Errorf("parsing %q: %w", text, err)
	}
	t, _, err := exec.RunBaseline(q, schema, db)
	if err != nil {
		return nil, fmt.Errorf("oracle answer of %q: %w", text, err)
	}
	return &query{text: text, q: q, oracle: digestTuples(t.Tuples()), rows: t.Len()}, nil
}

// buildPool draws keysPerShape keys for every shape, key slot by key slot,
// so pool[r] has shape r % len(poolShapes) and a smaller pool drawn from
// the same seed is a prefix of a larger one. Keys that repeat or whose
// answer is empty are redrawn.
func buildPool(live *liveData, schema ra.Schema, db *store.DB, seed int64, keysPerShape int) ([]*query, error) {
	rng := rand.New(rand.NewSource(seed ^ poolSeedSalt))
	seen := map[string]bool{}
	pool := make([]*query, 0, keysPerShape*len(poolShapes))
	for k := 0; k < keysPerShape; k++ {
		for _, s := range poolShapes {
			var q *query
			for try := 0; q == nil; try++ {
				if try == 1000 {
					return nil, fmt.Errorf("shape %s: no fresh non-empty key in 1000 draws", s.name)
				}
				c := s.key(live, rng)
				text := fmt.Sprintf(s.text, c[0], c[1])
				if seen[text] {
					continue
				}
				cand, err := newQuery(text, schema, db)
				if err != nil {
					return nil, err
				}
				if cand.rows == 0 {
					continue
				}
				seen[text] = true
				cand.shape, cand.consts = s.name, c
				q = cand
			}
			pool = append(pool, q)
		}
	}
	return pool, nil
}

// buildWrites samples the write pool: one half rows the hot pool's
// queries read (so a write to them fires view deltas), one half uniform.
func buildWrites(live *liveData, hot []*query, seed int64) []writeRow {
	rng := rand.New(rand.NewSource(seed ^ writeSeedSalt))
	byFid := map[int64]value.Tuple{}
	byOrigin := map[int64][]value.Tuple{}
	for _, t := range live.rows["ontime"] {
		byFid[t[ontimeFid].I] = t
		byOrigin[t[ontimeOrigin].I] = append(byOrigin[t[ontimeOrigin].I], t)
	}
	var out []writeRow
	for _, q := range hot {
		switch q.shape {
		case "point", "city":
			out = append(out, writeRow{"ontime", byFid[q.consts[0]]})
		case "causes":
			for _, t := range live.rows["delaycause"] {
				if t[delaycauseFid].I == q.consts[0] {
					out = append(out, writeRow{"delaycause", t})
					break
				}
			}
		case "carrier", "except":
			// A carrier row joins every view over this shape, whatever the origin.
			out = append(out, writeRow{"carrier", live.pick(rng, "carrier")})
		default: // fanout, monthdest, union: any flight out of the origin
			rows := byOrigin[q.consts[0]]
			out = append(out, writeRow{"ontime", rows[rng.Intn(len(rows))]})
		}
	}
	for n := len(out); n > 0; n-- {
		rel := "ontime"
		switch p := rng.Intn(10); {
		case p >= 9:
			rel = "airport"
		case p >= 8:
			rel = "carrier"
		case p >= 5:
			rel = "delaycause"
		}
		out = append(out, writeRow{rel, live.pick(rng, rel)})
	}
	return out
}

// buildInputs derives a workload's inputs from the pristine database.
func buildInputs(spec streamSpec, schema ra.Schema, db *store.DB, seed int64) (*inputs, error) {
	live, err := loadLive(db)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, schema: schema}
	keys := spec.keysPerShape
	if keys < hotKeys {
		keys = hotKeys
	}
	pool, err := buildPool(live, schema, db, seed, keys)
	if err != nil {
		return nil, err
	}
	in.probe = pool[:hotKeys*len(poolShapes)]
	in.writes = buildWrites(live, in.probe, seed)
	if spec.keysPerShape > 0 {
		in.pool, in.sample = pool, pool
		return in, nil
	}
	in.adhoc = newAdhocSpace(live, rand.New(rand.NewSource(seed^adhocSeedSalt)))
	// The sampled indices are spread over the whole space, so they cover
	// every shape; the stream reaches only a prefix of it.
	step := in.adhoc.size() / adhocSample
	for i := 0; i < adhocSample; i++ {
		q, err := newQuery(in.adhoc.text(i*step+i%len(adhocShapes)), schema, db)
		if err != nil {
			return nil, err
		}
		in.sample = append(in.sample, q)
	}
	return in, nil
}

// stream is one client's deterministic op sequence.
type stream struct {
	in      *inputs
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  int
	clients int
	n       int // ops drawn so far
}

func newStream(in *inputs, seed int64, client, clients int) *stream {
	s := &stream{in: in, client: client, clients: clients}
	s.rng = rand.New(rand.NewSource((seed ^ clientSeedSalt) + int64(client)*7919))
	if in.spec.zipf > 1 && len(in.pool) > 1 {
		s.zipf = rand.NewZipf(s.rng, in.spec.zipf, 1, uint64(len(in.pool)-1))
	}
	return s
}

// next draws the client's next op. ok is false once an ad-hoc stream has
// used up its share of the query space — a repeat would silently turn the
// workload into a cached one.
func (s *stream) next() (o op, ok bool) {
	s.n++
	if s.in.spec.writeShare > 0 && s.rng.Float64() < s.in.spec.writeShare {
		return op{write: true, idx: s.rng.Intn(len(s.in.writes))}, true
	}
	switch {
	case s.in.adhoc != nil:
		i := (s.n-1)*s.clients + s.client
		return op{idx: i}, i < s.in.adhoc.size()
	case s.zipf != nil:
		return op{idx: int(s.zipf.Uint64())}, true
	default:
		return op{idx: s.rng.Intn(len(s.in.pool))}, true
	}
}

// render writes an op the way the digest and the trace name it.
func (in *inputs) render(o op) string {
	switch {
	case o.write:
		w := in.writes[o.idx]
		return "w " + w.rel + " " + w.t.String()
	case in.adhoc != nil:
		return "q " + in.adhoc.text(o.idx)
	default:
		return "q " + in.pool[o.idx].text
	}
}

// digestOps is how many ops of each client's stream the stream digest covers.
const digestOps = 2048

// streamDigest fingerprints the op streams of all clients: a change to
// internal/workload (or to this file) that alters what the program under
// test is fed changes it.
func streamDigest(in *inputs, seed int64, clients int) string {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		s := newStream(in, seed, c, clients)
		for i := 0; i < digestOps; i++ {
			o, _ := s.next()
			fmt.Fprintln(h, c, in.render(o))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// oracleDigest fingerprints the oracle answers of the checked queries.
func oracleDigest(in *inputs) string {
	h := sha256.New()
	for _, q := range in.sample {
		h.Write(q.oracle[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
