package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-bucket log-linear latency histogram over nanoseconds.
// Values below 2^histSubBits ns land in exact unit buckets; above that,
// every power of two is cut into 2^histSubBits equal sub-buckets, so a
// bucket is at most 1/128 of its lower edge wide and the midpoint a
// quantile reports is within 0.4% of any sample in the bucket — inside
// the 1% the benchmark promises from 1 µs to 10 s (and up to ~18 min,
// where the top bucket clamps). The bucket layout is fixed, so two
// histograms merge by adding counts.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values at or above 2^40 ns clamp into the top bucket
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	m := int(ns>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + m
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	e := i/histSub + histSubBits - 1
	m := int64(i % histSub)
	w := int64(1) << (e - histSubBits)
	lo = int64(1)<<e + m*w
	return lo, lo + w
}

func (h *hist) add(d time.Duration) {
	ns := int64(d)
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, or 0 for an
// empty histogram: the position of the ceil(q*n)-th smallest sample,
// interpolated inside its bucket as if the bucket's samples were spread
// evenly over it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	// The epsilon keeps 0.99*1000 = 990.0000000000001 at rank 990.
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histBounds(i)
			if hi-lo == 1 {
				return float64(lo)
			}
			return float64(lo) + float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return float64(h.max)
}

// tailPercentiles are the candidates for the reported tail, highest last.
var tailPercentiles = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// beyond is the number of samples above the q-quantile's rank.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)-1e-9))
}

// supports reports whether percentile q has at least ten samples beyond
// it — a percentile resting on fewer is one or two outliers, not a
// property of the run.
func (h *hist) supports(q float64) bool { return h.n > 0 && h.beyond(q) >= 10 }

// tail returns the highest candidate percentile the sample supports, and
// ok=false when not even the median qualifies.
func (h *hist) tail() (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if !h.supports(p) {
			break
		}
		q, ok = p, true
	}
	return q, ok
}

func usOf(ns float64) float64 { return ns / 1e3 }
