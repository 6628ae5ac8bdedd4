package value

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Handle is an 8-byte, kind-tagged encoding of a Value relative to an
// Interner: the two top bits carry the kind, the low 62 bits carry the
// payload — the integer itself for small ints, an id into the interner's
// string or big-integer table otherwise. Two handles produced by the same
// interner are equal exactly when the values they encode are equal, so the
// batched executor (internal/exec) compares, hashes and moves handles
// instead of re-encoding tuples into key strings.
type Handle uint64

const (
	handleTagShift        = 62
	handleTagNull  uint64 = 0
	handleTagInt   uint64 = 1
	handleTagStr   uint64 = 2
	handleTagBig   uint64 = 3
	handlePayload         = uint64(1)<<handleTagShift - 1
)

// NullHandle encodes the Null value in every interner.
const NullHandle Handle = 0

// IsNull reports whether h encodes the Null value.
func (h Handle) IsNull() bool { return h == 0 }

// fitsInline reports whether i can be carried in the 62-bit two's
// complement payload of an Int handle.
func fitsInline(i int64) bool { return (i<<2)>>2 == i }

// IntHandle returns the handle of an Int value when it fits the inline
// 62-bit payload, without touching any interner state. The second result
// is false for the rare ints that need the interner's overflow table.
func IntHandle(i int64) (Handle, bool) {
	if !fitsInline(i) {
		return 0, false
	}
	return Handle(handleTagInt<<handleTagShift | uint64(i)&handlePayload), true
}

// Interner assigns Handles to Values. Strings (and the rare integers that
// do not fit the inline payload) are interned into append-only tables, so
// a value in flight is an 8-byte handle and equality is one integer
// comparison. An Interner is built and filled by one goroutine; once
// construction is done, any number of goroutines may Decode and
// LookupHandle concurrently (the first lookup builds the reverse maps
// under an internal lock when they were dropped by CloneTables).
type Interner struct {
	strs []string
	bigs []int64

	// mu guards the build of the reverse maps, mapsOK publishes it; after
	// the maps exist they are only read (interning is construction-only).
	mu     sync.Mutex
	mapsOK atomic.Bool
	strID  map[string]uint32
	bigID  map[int64]uint32
}

// NewInterner returns an empty interner ready for interning.
func NewInterner() *Interner {
	in := &Interner{strID: map[string]uint32{}}
	in.mapsOK.Store(true)
	return in
}

// Reset clears the interner for reuse, retaining its allocated capacity.
func (in *Interner) Reset() {
	in.strs = in.strs[:0]
	in.bigs = in.bigs[:0]
	if in.strID == nil {
		in.strID = map[string]uint32{}
	} else {
		clear(in.strID)
	}
	if in.bigID != nil {
		clear(in.bigID)
	}
	in.mapsOK.Store(true)
}

// CloneTables returns a detached copy of the interner's decode tables: the
// clone resolves every handle the source had issued, shares no mutable
// state with it, and rebuilds its reverse lookup maps lazily on first use.
// The batched executor uses it to hand a result table its own interner
// while the request arena (and its interner) go back to the pool.
func (in *Interner) CloneTables() *Interner {
	out := &Interner{}
	if len(in.strs) > 0 {
		out.strs = append(make([]string, 0, len(in.strs)), in.strs...)
	}
	if len(in.bigs) > 0 {
		out.bigs = append(make([]int64, 0, len(in.bigs)), in.bigs...)
	}
	return out
}

// ensureMaps rebuilds the reverse lookup maps after CloneTables dropped
// them. Safe to call concurrently; reads after it returns are lock-free.
func (in *Interner) ensureMaps() {
	if in.mapsOK.Load() {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.mapsOK.Load() {
		return
	}
	m := make(map[string]uint32, len(in.strs))
	for i, s := range in.strs {
		m[s] = uint32(i)
	}
	if len(in.bigs) > 0 {
		bm := make(map[int64]uint32, len(in.bigs))
		for i, b := range in.bigs {
			bm[b] = uint32(i)
		}
		in.bigID = bm
	}
	in.strID = m
	in.mapsOK.Store(true)
}

// Intern returns the handle of v, extending the tables as needed. It must
// only be called by the goroutine constructing the interner (or under an
// external lock).
func (in *Interner) Intern(v Value) Handle {
	switch v.K {
	case Int:
		if h, ok := IntHandle(v.I); ok {
			return h
		}
		in.ensureMaps()
		if in.bigID == nil {
			in.bigID = map[int64]uint32{}
		}
		id, ok := in.bigID[v.I]
		if !ok {
			id = uint32(len(in.bigs))
			in.bigs = append(in.bigs, v.I)
			in.bigID[v.I] = id
		}
		return Handle(handleTagBig<<handleTagShift | uint64(id))
	case Str:
		in.ensureMaps()
		id, ok := in.strID[v.S]
		if !ok {
			id = uint32(len(in.strs))
			in.strs = append(in.strs, v.S)
			in.strID[v.S] = id
		}
		return Handle(handleTagStr<<handleTagShift | uint64(id))
	default:
		return NullHandle
	}
}

// LookupHandle returns the handle v would intern to, without extending the
// tables. The second result is false when v was never interned — such a
// value cannot be present in any batch built over this interner.
func (in *Interner) LookupHandle(v Value) (Handle, bool) {
	switch v.K {
	case Int:
		if h, ok := IntHandle(v.I); ok {
			return h, true
		}
		in.ensureMaps()
		if id, ok := in.bigID[v.I]; ok {
			return Handle(handleTagBig<<handleTagShift | uint64(id)), true
		}
		return 0, false
	case Str:
		in.ensureMaps()
		if id, ok := in.strID[v.S]; ok {
			return Handle(handleTagStr<<handleTagShift | uint64(id)), true
		}
		return 0, false
	default:
		return NullHandle, true
	}
}

// Decode returns the Value a handle encodes. Handles must come from this
// interner (or one it was cloned from); anything else panics.
func (in *Interner) Decode(h Handle) Value {
	switch uint64(h) >> handleTagShift {
	case handleTagInt:
		return Value{K: Int, I: int64(uint64(h)<<2) >> 2}
	case handleTagStr:
		return Value{K: Str, S: in.strs[uint64(h)&handlePayload]}
	case handleTagBig:
		return Value{K: Int, I: in.bigs[uint64(h)&handlePayload]}
	default:
		if h != NullHandle {
			panic(fmt.Sprintf("value: malformed handle %#x", uint64(h)))
		}
		return Value{}
	}
}

// MissingHandle is the sentinel Remap substitutes for values the target
// interner has never seen. It is a big-int handle with an all-ones id,
// which a real interner would need 2^62 entries to issue, so it never
// collides with a legitimately issued handle and compares unequal to all
// of them.
const MissingHandle = ^Handle(0)

// Remap translates h from its source interner into the handle space the
// translation tables (from LookupRemap or InternRemap on the source) were
// built for. Inline ints and Null pass through unchanged — their encoding
// is interner-independent.
func (h Handle) Remap(strs, bigs []Handle) Handle {
	switch uint64(h) >> handleTagShift {
	case handleTagStr:
		return strs[uint64(h)&handlePayload]
	case handleTagBig:
		return bigs[uint64(h)&handlePayload]
	default:
		return h
	}
}

// LookupRemap builds per-id translation tables from in's interned strings
// and big ints to dst's handles, without extending dst: values dst has
// never seen map to MissingHandle. It reads dst via LookupHandle only, so
// it is safe on a dst shared by concurrent readers.
func (in *Interner) LookupRemap(dst *Interner) (strs, bigs []Handle) {
	strs = make([]Handle, len(in.strs))
	for i, s := range in.strs {
		h, ok := dst.LookupHandle(Value{K: Str, S: s})
		if !ok {
			h = MissingHandle
		}
		strs[i] = h
	}
	if len(in.bigs) > 0 {
		bigs = make([]Handle, len(in.bigs))
		for i, b := range in.bigs {
			h, ok := dst.LookupHandle(Value{K: Int, I: b})
			if !ok {
				h = MissingHandle
			}
			bigs[i] = h
		}
	}
	return strs, bigs
}

// InternRemap is LookupRemap with interning: values absent from dst are
// added, so every returned handle is valid in dst. dst must be privately
// owned by the caller (interning mutates it).
func (in *Interner) InternRemap(dst *Interner) (strs, bigs []Handle) {
	strs = make([]Handle, len(in.strs))
	for i, s := range in.strs {
		strs[i] = dst.Intern(Value{K: Str, S: s})
	}
	if len(in.bigs) > 0 {
		bigs = make([]Handle, len(in.bigs))
		for i, b := range in.bigs {
			bigs[i] = dst.Intern(Value{K: Int, I: b})
		}
	}
	return strs, bigs
}

// InternTuple appends the handles of t's values to dst and returns it.
func (in *Interner) InternTuple(dst []Handle, t Tuple) []Handle {
	for _, v := range t {
		dst = append(dst, in.Intern(v))
	}
	return dst
}

// Strings returns how many distinct strings the interner holds.
func (in *Interner) Strings() int { return len(in.strs) }

// AppendKey appends the canonical self-delimiting encoding of v — the same
// bytes Tuple.Key produces per value — to dst. The store's batched fetch
// path uses it to build index probe keys in a reusable buffer instead of
// allocating a key string per probe.
func AppendKey(dst []byte, v Value) []byte {
	return v.appendEncoded(dst)
}
