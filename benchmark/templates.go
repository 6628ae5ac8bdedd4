package main

import (
	"fmt"
	"math/rand"

	"repro/internal/store"
	"repro/internal/value"
)

// A shape is one rule-text query form over AIRCA whose constants are
// filled in from a live row, so the answer is non-empty by construction
// (except's is checked against the oracle when the pool is built). text
// takes the constants as %[1]d and %[2]d; key picks them from the data.
type shape struct {
	name string
	text string
	key  func(d *liveData, rng *rand.Rand) [2]int64
}

// Column positions in the AIRCA relations the keys are read from.
const (
	ontimeFid, ontimeOrigin, ontimeMonth = 0, 1, 4
	delaycauseFid, delaycauseCause       = 0, 1
	carrierCountry                       = 2
)

// poolShapes are the eight forms of the pooled workloads. Together they
// cover the serving paths the repo has: key lookups, bounded fan-outs,
// joins against broadcast and against partitioned relations, and the two
// set operators; under workload.Airca's ShardKeys they route as a mix of
// single-shard, scatter and residue plans.
var poolShapes = []shape{
	{
		name: "point",
		text: `q(origin, dest, airline, month, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`,
		key:  func(d *liveData, rng *rand.Rand) [2]int64 { return [2]int64{d.pickInt(rng, "ontime", ontimeFid)} },
	},
	{
		name: "fanout",
		text: `q(airline) :- ontime(f, %[1]d, d, airline, m, delay)`,
		key:  func(d *liveData, rng *rand.Rand) [2]int64 { return [2]int64{d.pickInt(rng, "ontime", ontimeOrigin)} },
	},
	{
		name: "carrier",
		text: `q(airline, country) :- ontime(f, %[1]d, d, airline, m, delay), carrier(airline, nm, country)`,
		key:  func(d *liveData, rng *rand.Rand) [2]int64 { return [2]int64{d.pickInt(rng, "ontime", ontimeOrigin)} },
	},
	{
		name: "causes",
		text: `q(origin, dest, cause, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, cause, mins)`,
		key: func(d *liveData, rng *rand.Rand) [2]int64 {
			return [2]int64{d.pickInt(rng, "delaycause", delaycauseFid)}
		},
	},
	{
		name: "city",
		text: `q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`,
		key:  func(d *liveData, rng *rand.Rand) [2]int64 { return [2]int64{d.pickInt(rng, "ontime", ontimeFid)} },
	},
	{
		name: "monthdest",
		text: `q(dest, city) :- ontime(f, %[1]d, dest, al, %[2]d, delay), airport(dest, city, st)`,
		key: func(d *liveData, rng *rand.Rand) [2]int64 {
			t := d.pick(rng, "ontime")
			return [2]int64{t[ontimeOrigin].I, t[ontimeMonth].I}
		},
	},
	{
		name: "except",
		text: `(q(airline) :- ontime(f, %[1]d, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, %[2]d), ontime(f2, %[1]d, d2, airline, m2, delay2))`,
		key: func(d *liveData, rng *rand.Rand) [2]int64 {
			return [2]int64{d.pickInt(rng, "ontime", ontimeOrigin), d.pickInt(rng, "carrier", carrierCountry)}
		},
	},
	{
		name: "union",
		text: `(q(airline) :- ontime(f, %[1]d, d, airline, m, delay)) UNION (q(airline) :- ontime(f2, %[2]d, d2, airline, m2, delay2))`,
		key: func(d *liveData, rng *rand.Rand) [2]int64 {
			a, b := d.pickInt(rng, "ontime", ontimeOrigin), d.pickInt(rng, "ontime", ontimeOrigin)
			if a > b { // UNION commutes: order the pair so (a,b) and (b,a) are one key
				a, b = b, a
			}
			return [2]int64{a, b}
		},
	},
}

// adhocShapes are the forms of engine-adhoc. That workload needs tens of
// thousands of distinct fingerprints per run, and only keys that are (or
// contain) a flight id are that numerous, so every form is anchored on one:
// the three fid-keyed pool shapes under different heads (a different head
// is a different fingerprint), plus set operators over a pair of flights.
// %[1]d is the flight id; %[2]d the cause of a delaycause row of that
// flight, or the second flight id.
var adhocShapes = []struct {
	text string
	rel  string // relation whose rows supply the constants
}{
	{`q(origin, dest, airline, month, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(origin, dest) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(airline, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(month) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(dest, airline, month) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(origin, delay) :- ontime(%[1]d, origin, dest, airline, month, delay)`, "ontime"},
	{`q(origin, dest, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`, "delaycause"},
	{`q(al, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`, "delaycause"},
	{`q(m, delay, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`, "delaycause"},
	{`q(dest, mins) :- ontime(%[1]d, origin, dest, al, m, delay), delaycause(%[1]d, %[2]d, mins)`, "delaycause"},
	{`q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`, "ontime"},
	{`q(city) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`, "ontime"},
	{`q(dest, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(origin, city, st)`, "ontime"},
	{`q(city, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(dest, city, st)`, "ontime"},
	{`q(city) :- ontime(%[1]d, origin, dest, al, m, delay), airport(dest, city, st)`, "ontime"},
	{`q(origin, st) :- ontime(%[1]d, origin, dest, al, m, delay), airport(dest, city, st)`, "ontime"},
	{`(q(dest) :- ontime(%[1]d, o, dest, al, m, dl)) UNION (q(dest) :- ontime(%[2]d, o2, dest, al2, m2, dl2))`, "pair"},
	{`(q(al) :- ontime(%[1]d, o, d, al, m, dl)) UNION (q(al) :- ontime(%[2]d, o2, d2, al, m2, dl2))`, "pair"},
	{`(q(o, d) :- ontime(%[1]d, o, d, al, m, dl)) EXCEPT (q(o, d) :- ontime(%[2]d, o, d, al2, m2, dl2))`, "pair"},
	{`(q(m) :- ontime(%[1]d, o, d, al, m, dl)) UNION (q(m) :- ontime(%[2]d, o2, d2, al2, m, dl2))`, "pair"},
}

// liveData is the generated database's rows, sorted so that sampling from
// them depends only on the seed (store.DB.Rows iterates a map).
type liveData struct {
	rows map[string][]value.Tuple
}

// loadLive reads the relations the templates and the write pool sample from.
func loadLive(db *store.DB) (*liveData, error) {
	d := &liveData{rows: map[string][]value.Tuple{}}
	for _, rel := range []string{"ontime", "delaycause", "carrier", "airport"} {
		rows, err := db.Rows(rel)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", rel, err)
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("relation %s is empty: no live row to anchor queries on", rel)
		}
		value.SortTuples(rows)
		d.rows[rel] = rows
	}
	return d, nil
}

func (d *liveData) pick(rng *rand.Rand, rel string) value.Tuple {
	rows := d.rows[rel]
	return rows[rng.Intn(len(rows))]
}

func (d *liveData) pickInt(rng *rand.Rand, rel string, col int) int64 {
	return d.pick(rng, rel)[col].I
}

// adhocSpace enumerates engine-adhoc's queries: index i names shape
// i % len(adhocShapes) over the (i / len(adhocShapes))-th row of a
// seed-shuffled order, so every index below size() is a distinct
// fingerprint and two clients taking disjoint indices never collide.
type adhocSpace struct {
	ontime, delaycause []value.Tuple // shuffled copies
}

func newAdhocSpace(d *liveData, rng *rand.Rand) *adhocSpace {
	shuffled := func(rows []value.Tuple) []value.Tuple {
		out := append([]value.Tuple(nil), rows...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &adhocSpace{ontime: shuffled(d.rows["ontime"]), delaycause: shuffled(d.rows["delaycause"])}
}

// size is the number of distinct queries the space holds.
func (a *adhocSpace) size() int {
	n := len(a.ontime)
	if len(a.delaycause) < n {
		n = len(a.delaycause)
	}
	return n * len(adhocShapes)
}

// text renders query i.
func (a *adhocSpace) text(i int) string {
	s := adhocShapes[i%len(adhocShapes)]
	k := i / len(adhocShapes)
	switch s.rel {
	case "delaycause":
		t := a.delaycause[k]
		return fmt.Sprintf(s.text, t[delaycauseFid].I, t[delaycauseCause].I)
	case "pair":
		// The partner is the next flight in shuffled order; fids are
		// distinct, and (k, k+1) never repeats as (k+1, k) within one shape
		// because every shape fixes which side is %[1]d.
		return fmt.Sprintf(s.text, a.ontime[k][ontimeFid].I, a.ontime[(k+1)%len(a.ontime)][ontimeFid].I)
	default:
		return fmt.Sprintf(s.text, a.ontime[k][ontimeFid].I)
	}
}
