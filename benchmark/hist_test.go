package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The histogram promises at most 1% relative error on any quantile for
// values from 1 µs to 10 s.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var vals []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 1 µs .. 10 s, so every octave is populated.
		ns := math.Exp(rng.Float64()*math.Log(1e10/1e3)) * 1e3
		h.add(time.Duration(ns))
		vals = append(vals, math.Floor(ns))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%g: got %.0f, exact %.0f, relative error %.4f > 0.01", q, got, want, rel)
		}
	}
}

func TestHistBucketsCoverTheRange(t *testing.T) {
	prevHi := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if histIndex(lo) != i || histIndex(hi-1) != i {
			t.Fatalf("bucket %d [%d,%d) does not map back to itself", i, lo, hi)
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d [%d,%d) is wider than 1/%d of its lower edge", i, lo, hi, histSub)
		}
		prevHi = hi
	}
	if ten := int64(10 * time.Second); histIndex(ten) >= histBuckets-1 {
		t.Fatalf("10 s clamps into the top bucket")
	}
}

func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all hist
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		all.add(d)
		if i%3 == 0 {
			a.add(d)
		} else {
			b.add(d)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatalf("merging the halves differs from adding every sample to one histogram")
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestHistTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},     // 9.5 samples beyond the median
		{20, 0.50, true},   // 10 beyond p50, 2 beyond p90
		{100, 0.90, true},  // 10 beyond p90, 1 beyond p99
		{999, 0.90, true},  // 9.99 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		var h hist
		for i := 0; i < c.n; i++ {
			h.add(time.Microsecond)
		}
		got, ok := h.tail()
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: tail() = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
		if ok && !h.supports(got) {
			t.Errorf("n=%d: tail() chose p%g but supports() denies it", c.n, 100*got)
		}
	}
}
