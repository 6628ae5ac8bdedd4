package ivm

import (
	"encoding/binary"
	"sync/atomic"
)

// sketchRows is the depth of the frequency sketch: an estimate is the
// minimum over this many independently indexed counters.
const sketchRows = 4

// rowMul spreads one key hash over the rows: row r's cell is the top bits
// of hash × rowMul[r], so two keys sharing a cell in one row are no more
// likely than any other pair to share one in the next.
var rowMul = [sketchRows]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93}

// sketch is a count-min frequency sketch whose counters all halve every
// period adds — the decayed popularity signal of TinyLFU (Einziger et al.,
// "TinyLFU: A Highly Efficient Cache Admission Policy", 2017). It counts
// every key the same way whether or not a view is live for it, so a
// resident and a candidate can be compared on one scale, and a key that
// stops being read loses half its weight per period instead of keeping
// its lifetime count. Safe for concurrent use; it allocates nothing after
// construction.
type sketch struct {
	width  int
	shift  uint  // 64 - log2(width): a product's top bits index a row
	period int64 // adds between two halvings
	adds   atomic.Int64
	cells  []atomic.Uint32 // sketchRows rows of width counters
}

// newSketch sizes a sketch for a view budget: about 16 counters per view
// in each row, rounded up to a power of two, and a halving period of 8
// adds per counter, so a budget's worth of hot keys is tracked with few
// collisions and its counts decay over a span of a few times the budget's
// reads.
func newSketch(budget int) *sketch {
	width, shift := 1, uint(64)
	for width < 16*budget {
		width <<= 1
		shift--
	}
	return &sketch{
		width:  width,
		shift:  shift,
		period: 8 * int64(width),
		cells:  make([]atomic.Uint32, sketchRows*width),
	}
}

// sketchHash is a key's sketch hash: FNV-1a over the key's bytes (the
// query digest as four 8-byte words, then the option bits), then the
// murmur3 finalizer. It is fixed, not seeded per process, so which keys
// share cells — and with it every admission decision — is the same from
// run to run. Callers that score a key repeatedly keep its hash.
func sketchHash(k Key) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(k.Query); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(k.Query[i:])) * prime
	}
	h = (h ^ uint64(k.Shape)) * prime
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// cell is row r's counter for hash h.
func (s *sketch) cell(h uint64, r int) *atomic.Uint32 {
	return &s.cells[r*s.width+int(h*rowMul[r]>>s.shift)]
}

// estimate is the key's decayed count: never below its true count since
// the last halving (counters only grow between halvings), above it only by
// what keys sharing all of its cells contributed.
func (s *sketch) estimate(h uint64) uint32 {
	est := s.cell(h, 0).Load()
	for r := 1; r < sketchRows; r++ {
		est = min(est, s.cell(h, r).Load())
	}
	return est
}

// add counts one occurrence of the key and halves every counter once per
// period.
func (s *sketch) add(h uint64) {
	for r := 0; r < sketchRows; r++ {
		s.cell(h, r).Add(1)
	}
	if s.adds.Add(1)%s.period == 0 {
		s.halve()
	}
}

// halve divides every counter by two.
func (s *sketch) halve() {
	for i := range s.cells {
		c := &s.cells[i]
		for v := c.Load(); !c.CompareAndSwap(v, v/2); v = c.Load() {
		}
	}
}
