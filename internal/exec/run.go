package exec

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/value"
)

// Source is where a plan's fetch steps read index buckets from and where
// the baseline's scans read relations from. *store.DB is the single-engine
// source; the sharded router supplies one that routes each fetch to the
// members holding the bucket and each scan to the members holding the
// relation.
//
// Fetch returns the bucket of X value xvals in the index for c (xvals is
// nil when c.X is empty). FetchBatch calls emit(i, rows) once for every
// probe xs[i], in any order; rows may be reused after emit returns. Both
// must return each bucket's distinct rows in plan.IndexCols(c) layout, so
// Run can charge accesses exactly as the store does: one per row, or one
// for an empty probe. Scan returns every tuple of rel exactly once, so
// RunBaseline charges one scanned access per tuple of the relation.
type Source interface {
	Fetch(c access.Constraint, xvals value.Tuple) ([]value.Tuple, error)
	FetchBatch(c access.Constraint, xs []value.Tuple, emit func(i int, rows []value.Tuple)) error
	Scan(rel string) ([]value.Tuple, error)
}

// Stats reports the cost of an evaluation.
type Stats struct {
	// Accessed is the number of tuples read from the database (index
	// fetches for bounded plans, scans for the baseline).
	Accessed int64
	// Fetched / Scanned split Accessed by access path.
	Fetched, Scanned int64
	// Duration is wall-clock evaluation time.
	Duration time.Duration
	// PlanLength is the number of plan steps (0 for the baseline).
	PlanLength int
}

// accCounter tallies one evaluation's data accesses locally, mirroring the
// store's accounting (Fetch: tuples returned, or 1 for an empty probe;
// Scan: tuples read). The DB-global counter is a delta shared by every
// concurrent execution, so per-run Stats must count independently or each
// query would be charged for its neighbours' accesses.
type accCounter struct {
	fetched, scanned int64
}

func (c *accCounter) stats(start time.Time, planLen int) Stats {
	return Stats{
		Accessed:   c.fetched + c.scanned,
		Fetched:    c.fetched,
		Scanned:    c.scanned,
		Duration:   time.Since(start),
		PlanLength: planLen,
	}
}

// Run executes a bounded query plan over src (evalQP): a *store.DB on one
// engine, or the sharded router's routed source, which sends every fetch
// to the members holding its bucket. Every constraint referenced by fetch
// steps must have an index behind src. Stats are counted from the rows
// src hands back, so they are the same whichever source serves the
// buckets.
//
// Execution is columnar: every step produces an arena-backed batch table,
// the result is detached into self-contained heap storage, and the arena
// returns to its pool — so a steady-state run performs no per-tuple
// allocation. Steps run in plan order on the calling goroutine.
func Run(p *plan.Plan, src Source) (*Table, Stats, error) {
	start := time.Now()
	var acc accCounter
	a := getArena()
	defer a.release()
	ctx := &evalCtx{a: a, in: a.in, acc: &acc}
	tables := make([]*Table, len(p.Steps))
	for i := range p.Steps {
		t, err := runStep(ctx, p, &p.Steps[i], tables, src)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("exec: step T%d (%s): %w", i, p.Steps[i].Op, err)
		}
		noteBatch(t.Len())
		tables[i] = t
	}
	return tables[p.Result].detach(), acc.stats(start, len(p.Steps)), nil
}

// runStep evaluates one plan step over the batches of its inputs. Every
// operator maintains the invariant that step outputs are duplicate-free:
// Const/Fetch/Project/Union deduplicate explicitly, and
// Filter/Product/Join/Diff preserve distinctness of distinct inputs.
func runStep(ctx *evalCtx, p *plan.Plan, s *plan.Step, tables []*Table, src Source) (*Table, error) {
	switch s.Op {
	case plan.OpConst:
		t := newCtxTable(ctx, s.Cols, len(s.Rows))
		t.initSet(len(s.Rows))
		for _, r := range s.Rows {
			for j := range t.cols {
				t.pushCand(j, ctx.in.Intern(r[j]))
			}
			t.commitCand()
		}
		return t, nil

	case plan.OpFetch:
		return runFetch(ctx, s, tables, src)

	case plan.OpProject:
		in := tables[s.L]
		t := newCtxTable(ctx, s.Cols, in.n)
		for j, p := range s.Pos {
			t.cols[j] = append(t.cols[j], in.cols[p][:in.n]...)
		}
		t.setLen(in.n)
		t.dedupAll()
		return t, nil

	case plan.OpFilter:
		in := tables[s.L]
		keep, err := filterRows(ctx, in, s.Conds)
		if err != nil {
			return nil, err
		}
		t := newCtxTable(ctx, s.Cols, len(keep))
		gatherInto(t, in.cols, keep)
		return t, nil

	case plan.OpProduct:
		return crossCtx(ctx, tables[s.L], tables[s.R], s.Cols), nil

	case plan.OpJoin:
		return natJoinCtx(ctx, tables[s.L], tables[s.R]), nil

	case plan.OpUnion:
		l, r := tables[s.L], tables[s.R]
		t := newCtxTable(ctx, s.Cols, l.n+r.n)
		for j := range t.cols {
			t.cols[j] = append(t.cols[j], l.cols[j][:l.n]...)
			t.cols[j] = append(t.cols[j], r.cols[j][:r.n]...)
		}
		t.setLen(l.n + r.n)
		t.dedupAll()
		return t, nil

	case plan.OpDiff:
		l, r := tables[s.L], tables[s.R]
		keep := diffRows(ctx, l, r)
		t := newCtxTable(ctx, s.Cols, len(keep))
		gatherInto(t, l.cols, keep)
		return t, nil

	default:
		return nil, fmt.Errorf("unknown operator %v", s.Op)
	}
}

// filterRows returns the ids of in's rows satisfying every condition,
// applying conditions column-wise: the first condition scans its columns,
// later ones compact the survivor list in place.
func filterRows(ctx *evalCtx, in *Table, conds []plan.Cond) ([]int32, error) {
	keep := ctx.allocInts(in.n)
	for i := 0; i < in.n; i++ {
		keep = append(keep, int32(i))
	}
	for _, c := range conds {
		if c.IsConst {
			ch := ctx.in.Intern(c.C)
			col := in.cols[c.PosA]
			w := 0
			for _, id := range keep {
				if col[id] == ch {
					keep[w] = id
					w++
				}
			}
			keep = keep[:w]
		} else {
			ca, cb := in.cols[c.PosA], in.cols[c.PosB]
			w := 0
			for _, id := range keep {
				if ca[id] == cb[id] {
					keep[w] = id
					w++
				}
			}
			keep = keep[:w]
		}
	}
	return keep, nil
}

// diffRows returns the ids of l's rows that are absent from r. Both sides
// share the evaluation's interner, so rows compare by handles.
func diffRows(ctx *evalCtx, l, r *Table) []int32 {
	r.ensureSet()
	keep := ctx.allocInts(l.n)
	vals := ctx.allocHandles(len(l.cols))[:len(l.cols)]
	for i := 0; i < l.n; i++ {
		for j, c := range l.cols {
			vals[j] = c[i]
		}
		if !r.lookupRow(vals) {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// gatherInto fills t's columns with the identified rows of src and
// finalizes the row count (no dedup: a gather of distinct rows is
// distinct). t's columns must have capacity len(ids).
func gatherInto(t *Table, src [][]value.Handle, ids []int32) {
	for j := range t.cols {
		dst := t.cols[j][:len(ids)]
		sc := src[j]
		for k, id := range ids {
			dst[k] = sc[id]
		}
		t.cols[j] = dst
	}
	t.setLen(len(ids))
}

// crossCtx builds the cross product of two batches by tiling the left
// columns and repeating the right ones — distinct × distinct is distinct,
// so no dedup pass is needed.
func crossCtx(ctx *evalCtx, l, r *Table, outCols []string) *Table {
	m := l.n * r.n
	t := newCtxTable(ctx, outCols, m)
	for j := range l.cols {
		dst := t.cols[j][:m]
		sc := l.cols[j]
		w := 0
		for i := 0; i < l.n; i++ {
			v := sc[i]
			for k := 0; k < r.n; k++ {
				dst[w] = v
				w++
			}
		}
		t.cols[j] = dst
	}
	for j := range r.cols {
		dst := t.cols[len(l.cols)+j][:m]
		sc := r.cols[j][:r.n]
		for i := 0; i < l.n; i++ {
			copy(dst[i*r.n:(i+1)*r.n], sc)
		}
		t.cols[len(l.cols)+j] = dst
	}
	t.setLen(m)
	return t
}

// colIndex returns the position of label in cols, or -1 (an allocation-free
// linear search; output widths are small).
func colIndex(cols []string, label string) int {
	for i, c := range cols {
		if c == label {
			return i
		}
	}
	return -1
}

// runFetch implements the fetch operator: the distinct X values of the
// input batch are computed column-wise, all index probes for the batch go
// to src in one FetchBatch (one store lock acquisition on a *store.DB),
// and fetched tuples are interned and emitted with intra-class equality
// and constant bindings enforced — the same per-tuple semantics as the
// tuple-at-a-time reference evaluator the fuzz wall compares against, with
// identical access accounting.
func runFetch(ctx *evalCtx, s *plan.Step, tables []*Table, src Source) (*Table, error) {
	out := newCtxTable(ctx, s.Cols, 0)
	out.initSet(16)

	// Constant requirements by output position; MissingHandle = none.
	constAt := ctx.allocHandles(len(s.Cols))[:len(s.Cols)]
	for j := range constAt {
		constAt[j] = value.MissingHandle
	}
	for _, ce := range s.ConstEqs {
		p := colIndex(s.Cols, ce.Label)
		if p < 0 {
			return nil, fmt.Errorf("const requirement on unknown column %s", ce.Label)
		}
		constAt[p] = ctx.in.Intern(ce.C)
	}
	// Index payload position -> output position.
	outPos := ctx.allocInts(len(s.FetchAttrs))[:len(s.FetchAttrs)]
	for i, lbl := range s.FetchLabels {
		p := colIndex(s.Cols, lbl)
		if p < 0 {
			return nil, fmt.Errorf("fetch label %s not among output columns", lbl)
		}
		outPos[i] = int32(p)
	}

	rowbuf := ctx.allocHandles(len(s.Cols))[:len(s.Cols)]
	seen := ctx.allocInts(len(s.Cols))[:len(s.Cols)]

	emit := func(fetched []value.Tuple) {
	rowLoop:
		for _, ft := range fetched {
			for j := range rowbuf {
				rowbuf[j] = value.NullHandle
				seen[j] = 0
			}
			for i, p := range outPos {
				h := ctx.in.Intern(ft[i])
				if seen[p] != 0 {
					// Two index attributes share a class: values must agree.
					if rowbuf[p] != h {
						continue rowLoop
					}
					continue
				}
				if constAt[p] != value.MissingHandle && h != constAt[p] {
					continue rowLoop
				}
				rowbuf[p] = h
				seen[p] = 1
			}
			for j, h := range rowbuf {
				out.pushCand(j, h)
			}
			out.commitCand()
		}
	}

	countFetch := func(fetched []value.Tuple) {
		if len(fetched) == 0 {
			ctx.acc.fetched++ // empty probe still touches the index once
		} else {
			ctx.acc.fetched += int64(len(fetched))
		}
	}

	if len(s.XCols) == 0 {
		fetched, err := src.Fetch(s.Con, nil)
		if err != nil {
			return nil, err
		}
		countFetch(fetched)
		emit(fetched)
		return out, nil
	}

	in := tables[s.L]
	xcols := make([][]value.Handle, len(s.XCols))
	for i, lbl := range s.XCols {
		p := colIndex(in.Cols, lbl)
		if p < 0 {
			return nil, fmt.Errorf("fetch X column %s missing from input", lbl)
		}
		xcols[i] = in.cols[p]
	}
	ids := distinctOn(ctx, xcols, in.n)
	xs := make([]value.Tuple, len(ids))
	flat := make(value.Tuple, len(ids)*len(xcols))
	for k, id := range ids {
		row := flat[k*len(xcols) : (k+1)*len(xcols) : (k+1)*len(xcols)]
		for j := range xcols {
			row[j] = ctx.in.Decode(xcols[j][id])
		}
		xs[k] = row
	}
	if db, ok := src.(*store.DB); ok {
		// The concrete call keeps this callback off the heap; through the
		// interface it would escape, and take the closures it calls along.
		err := db.FetchBatch(s.Con, xs, func(_ int, fetched []value.Tuple) {
			countFetch(fetched)
			emit(fetched)
		})
		return out, err
	}
	rows, spans, err := fetchBuffered(src, s.Con, xs)
	if err != nil {
		return nil, err
	}
	for _, sp := range spans {
		fetched := rows[sp[0]:sp[1]]
		countFetch(fetched)
		emit(fetched)
	}
	return out, nil
}

// fetchBuffered runs one FetchBatch through a Source other than *store.DB
// and returns every probe's rows as a span of one flat slice. Its callback
// escapes through the interface, so it captures only these buffers, never
// runFetch's state.
func fetchBuffered(src Source, c access.Constraint, xs []value.Tuple) ([]value.Tuple, [][2]int, error) {
	var rows []value.Tuple
	spans := make([][2]int, len(xs))
	err := src.FetchBatch(c, xs, func(i int, fetched []value.Tuple) {
		spans[i][0] = len(rows)
		rows = append(rows, fetched...)
		spans[i][1] = len(rows)
	})
	return rows, spans, err
}

// natJoinCtx computes the natural join of two batches sharing the
// evaluation's interner: the right side is hashed on the shared labels
// once per batch (with a signature pre-filter when it is large enough),
// the left side probes, and matched pairs are gathered column-wise.
func natJoinCtx(ctx *evalCtx, l, r *Table) *Table {
	var lShared, rShared, rRest []int
	for i, c := range r.Cols {
		if p := colIndex(l.Cols, c); p >= 0 {
			lShared = append(lShared, p)
			rShared = append(rShared, i)
		} else {
			rRest = append(rRest, i)
		}
	}
	outCols := append([]string{}, l.Cols...)
	for _, i := range rRest {
		outCols = append(outCols, r.Cols[i])
	}

	li, ri := hashJoinPairs(ctx, l, r, lShared, rShared)

	out := newCtxTable(ctx, outCols, len(li))
	for j := range l.cols {
		dst := out.cols[j][:len(li)]
		sc := l.cols[j]
		for w, id := range li {
			dst[w] = sc[id]
		}
		out.cols[j] = dst
	}
	for k, rj := range rRest {
		dst := out.cols[len(l.cols)+k][:len(ri)]
		sc := r.cols[rj]
		for w, id := range ri {
			dst[w] = sc[id]
		}
		out.cols[len(l.cols)+k] = dst
	}
	out.setLen(len(li))
	return out
}

// hashJoinPairs returns the matching (left row, right row) id pairs of an
// equi-join on the given key positions. The right side is the build side;
// a signature filter over its key hashes short-circuits probe misses.
func hashJoinPairs(ctx *evalCtx, l, r *Table, lkey, rkey []int) (li, ri []int32) {
	nb := setSlots(r.n)
	head := ctx.allocInts(nb)[:nb]
	clear(head)
	next := ctx.allocInts(r.n)[:r.n]
	hs := ctx.allocHandles(r.n)[:r.n]
	for i := 0; i < r.n; i++ {
		h := hashRowAt(r.cols, rkey, i)
		hs[i] = value.Handle(h)
		b := uint32(h) & uint32(nb-1)
		next[i] = head[b]
		head[b] = int32(i) + 1
	}
	sig := newSigFilter(ctx, hs)

	li = ctx.allocInts(l.n)
	ri = ctx.allocInts(l.n)
	var nHit, nMiss int64
probe:
	for i := 0; i < l.n; i++ {
		h := hashRowAt(l.cols, lkey, i)
		if sig != nil {
			if !sig.may(h) {
				nHit++
				continue probe
			}
			nMiss++
		}
		for e := head[uint32(h)&uint32(nb-1)]; e != 0; e = next[e-1] {
			eq := true
			for k, lp := range lkey {
				if l.cols[lp][i] != r.cols[rkey[k]][e-1] {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			if len(li) == cap(li) {
				li = ctx.growInts(li, 1)
			}
			if len(ri) == cap(ri) {
				ri = ctx.growInts(ri, 1)
			}
			li = append(li, int32(i))
			ri = append(ri, int32(e-1))
		}
	}
	if sig != nil {
		cSigHit.Add(nHit)
		cSigMiss.Add(nMiss)
	}
	return li, ri
}

// NatJoin computes the natural join of two tables on their shared column
// labels, with output columns l.Cols followed by r's non-shared columns.
// The operands may come from different interners; the result owns a
// detached handle space covering both.
func NatJoin(l, r *Table) *Table {
	s := l.in.CloneTables()
	r2 := alignTo(s, r)
	l2 := &Table{Cols: l.Cols, in: s, cols: l.cols, n: l.n}
	ctx := &evalCtx{in: s}
	out := natJoinCtx(ctx, l2, r2)
	noteBatch(out.n)
	return out
}

// alignTo re-expresses t in the handle space of s, interning values s has
// not seen. s must be privately owned by the caller; t is read-only.
func alignTo(s *value.Interner, t *Table) *Table {
	strs, bigs := t.in.InternRemap(s)
	cols := make([][]value.Handle, len(t.cols))
	for j, c := range t.cols {
		nc := make([]value.Handle, t.n)
		for i := 0; i < t.n; i++ {
			nc[i] = c[i].Remap(strs, bigs)
		}
		cols[j] = nc
	}
	return &Table{Cols: t.Cols, in: s, cols: cols, n: t.n}
}
