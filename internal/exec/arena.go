package exec

import (
	"sync"

	"repro/internal/value"
)

// chunkHandles is the number of 8-byte slots per arena chunk (128 KiB).
// Column requests larger than a chunk get a dedicated chunk of their exact
// size, which is dropped again at release so one huge intermediate does
// not pin memory in the pool forever.
const chunkHandles = 16 << 10

// arena is the per-request scratch space of the batched executor: a string
// interner plus bump-allocated slabs for column data ([]value.Handle,
// doubling as []uint64 hash storage) and row-id tables ([]int32). All
// intermediates of one evaluation come from its arena; at the end the
// result batch is detached into a self-contained Table and the arena goes
// back to a sync.Pool wholesale, so steady-state hot-path execution
// allocates (almost) nothing. An arena belongs to one evaluation on one
// goroutine.
type arena struct {
	in *value.Interner

	hChunks  [][]value.Handle // fixed-size handle chunks, reused across requests
	hCur     int              // index of the chunk being bumped
	hUsed    int              // slots used in the current chunk
	hBig     [][]value.Handle // oversized one-off chunks, dropped at release
	iChunks  [][]int32
	iCur     int
	iUsed    int
	iBig     [][]int32
	retained int64 // bytes held by the reusable chunks
}

// arenaPool recycles arenas across requests. Pool misses are counted so
// /stats can report the executor's pool hit rate.
var arenaPool = sync.Pool{New: func() any {
	cArenaNew.Add(1)
	return &arena{in: value.NewInterner()}
}}

// getArena takes an arena from the pool and marks its memory in use.
func getArena() *arena {
	cArenaGet.Add(1)
	a := arenaPool.Get().(*arena)
	cArenaInUse.Add(a.retained)
	return a
}

// release resets the arena and returns it to the pool. Oversized chunks
// are dropped; regular chunks and the interner's capacity are retained.
func (a *arena) release() {
	a.hBig = nil
	a.iBig = nil
	a.hCur, a.hUsed = 0, 0
	a.iCur, a.iUsed = 0, 0
	a.in.Reset()
	cArenaInUse.Add(-a.retained)
	arenaPool.Put(a)
}

// handles returns a zero-length slice with capacity n backed by the arena.
func (a *arena) handles(n int) []value.Handle {
	if n > chunkHandles {
		c := make([]value.Handle, 0, n)
		a.hBig = append(a.hBig, c)
		return c
	}
	for {
		if a.hCur == len(a.hChunks) {
			a.hChunks = append(a.hChunks, make([]value.Handle, chunkHandles))
			a.retained += chunkHandles * 8
			cArenaInUse.Add(chunkHandles * 8)
		}
		if chunkHandles-a.hUsed >= n {
			c := a.hChunks[a.hCur]
			s := c[a.hUsed : a.hUsed : a.hUsed+n]
			a.hUsed += n
			return s
		}
		a.hCur++
		a.hUsed = 0
	}
}

// growHandles returns s with at least extra free capacity, copying into a
// larger arena slab when needed (the abandoned slab space is reclaimed at
// release).
func (a *arena) growHandles(s []value.Handle, extra int) []value.Handle {
	if cap(s)-len(s) >= extra {
		return s
	}
	want := 2 * cap(s)
	if want < len(s)+extra {
		want = len(s) + extra
	}
	if want < 64 {
		want = 64
	}
	out := a.handles(want)
	return append(out, s...)
}

// ints returns a zero-length []int32 with capacity n backed by the arena.
func (a *arena) ints(n int) []int32 {
	if n > 4*chunkHandles { // int32 chunks hold 4x the slots of a handle chunk
		c := make([]int32, 0, n)
		a.iBig = append(a.iBig, c)
		return c
	}
	for {
		if a.iCur == len(a.iChunks) {
			a.iChunks = append(a.iChunks, make([]int32, 4*chunkHandles))
			a.retained += 4 * chunkHandles * 4
			cArenaInUse.Add(4 * chunkHandles * 4)
		}
		if 4*chunkHandles-a.iUsed >= n {
			c := a.iChunks[a.iCur]
			s := c[a.iUsed : a.iUsed : a.iUsed+n]
			a.iUsed += n
			return s
		}
		a.iCur++
		a.iUsed = 0
	}
}

// growInts is growHandles for []int32.
func (a *arena) growInts(s []int32, extra int) []int32 {
	if cap(s)-len(s) >= extra {
		return s
	}
	want := 2 * cap(s)
	if want < len(s)+extra {
		want = len(s) + extra
	}
	if want < 64 {
		want = 64
	}
	out := a.ints(want)
	return append(out, s...)
}

// zeroedInts returns an n-slot []int32 filled with zeroes (chunk reuse
// leaves stale data behind).
func (a *arena) zeroedInts(n int) []int32 {
	s := a.ints(n)[:n]
	clear(s)
	return s
}

// evalCtx carries one evaluation's state: the interner every intermediate
// shares, the memory arena, and the access counter.
type evalCtx struct {
	a   *arena
	in  *value.Interner
	acc *accCounter
}

// allocHandles returns a zero-length handle slice with capacity n, from
// the evaluation's arena when it has one and the heap otherwise
// (compat-table operations run arena-less).
func (c *evalCtx) allocHandles(n int) []value.Handle {
	if c.a != nil {
		return c.a.handles(n)
	}
	return make([]value.Handle, 0, n)
}

// allocInts is allocHandles for []int32.
func (c *evalCtx) allocInts(n int) []int32 {
	if c.a != nil {
		return c.a.ints(n)
	}
	return make([]int32, 0, n)
}

// growHandles extends s by at least extra capacity from the same source
// allocHandles used.
func (c *evalCtx) growHandles(s []value.Handle, extra int) []value.Handle {
	if c.a != nil {
		return c.a.growHandles(s, extra)
	}
	return s // heap slices grow through append
}

// growInts is growHandles for []int32.
func (c *evalCtx) growInts(s []int32, extra int) []int32 {
	if c.a != nil {
		return c.a.growInts(s, extra)
	}
	return s
}
