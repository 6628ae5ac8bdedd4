package ra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/value"
)

// Key identifies a normalized query up to canonical form: the SHA-256
// digest of its canonical serialization. It is the plan-cache, view and
// routing-decision key of the serving path.
//
// Soundness: the digest covers the whole canonical tree (every relation
// occurrence with its base, every equality atom and constant, every
// projected attribute, every operator), and canonicalization only
// reorders commutative structure, renames occurrences and rewrites each
// selection's atoms within their equivalence classes. So equal keys mean
// equal canonical forms (barring a SHA-256 collision), and equal canonical
// forms evaluate to the same rows on every database. The converse does not
// hold: the occurrence order comes from a bounded colour refinement, not a
// full graph canonization (query isomorphism is GI-hard), so two equivalent
// queries may key apart — a plan-cache miss, never a wrong answer. The
// refinement hashes only steer that order; a collision among them merges
// two tie groups, which again can cost a miss but never a false hit.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the form Fingerprint returns.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hash returns the key's first eight bytes as an integer. The digest is
// uniformly distributed, so this is a ready-made hash for sharding a
// table by key.
func (k Key) Hash() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// Canonical returns a canonical normal form of q: relation occurrences are
// renamed to position-independent names (base~n in canonical order),
// conjuncts of a product under a projection are put in a stable order,
// union operands are sorted, duplicate and reflexive equality atoms are
// folded away, and each selection's equality atoms are re-emitted in a
// canonical star shape per equivalence class (every member and constant
// attached to the class representative, projections folded onto it).
// The result is A-equivalent to q on every instance: atom reordering is
// sound because projections and selections address columns by name, and
// union is commutative; only Diff and raw positional contexts keep their
// operand order.
//
// Canonical builds the tree KeyOf hashes: KeyOf(Normalize(q)) is the
// SHA-256 of the canonical tree's serialization, and Canonical is a
// fixpoint (canonicalizing its result changes neither tree nor key). It
// allocates the new tree, so it is meant for cold paths (the server's
// canonical text, the public API); the serving path calls KeyOf.
func Canonical(q Query, s Schema) (Query, error) {
	norm, err := Normalize(q, s)
	if err != nil {
		return nil, err
	}
	c := getCanonizer()
	defer putCanonizer(c)
	c.canonicalize(norm)
	return c.tree(0), nil
}

// Fingerprint returns the hex form of q's canonical key: Fingerprint(q1) ==
// Fingerprint(q2) implies q1 and q2 evaluate to the same answer (as a set
// of rows) on every database of s. The converse does not hold — see Key.
func Fingerprint(q Query, s Schema) (string, error) {
	norm, err := Normalize(q, s)
	if err != nil {
		return "", err
	}
	return FingerprintNormalized(norm), nil
}

// FingerprintNormalized is the hex form of KeyOf(norm).
func FingerprintNormalized(norm Query) string { return KeyOf(norm).String() }

// KeyOf returns the canonical key of a query already in the normal form
// Normalize produces (relation occurrences distinct and valid against the
// schema); passing anything else yields an unspecified key. It streams the
// canonical serialization into SHA-256 from index data in pooled scratch —
// no tree is built — and allocates nothing in the steady state.
func KeyOf(norm Query) Key {
	c := getCanonizer()
	c.canonicalize(norm)
	c.buf = c.buf[:0]
	c.serialize(0)
	k := Key(sha256.Sum256(c.buf))
	putCanonizer(c)
	return k
}

// --- the canonicalizer -----------------------------------------------------
//
// A canonizer flattens the query into pre-order node records (products and
// unions flattened into one node with their leaves as children), so every
// subtree is a contiguous node range, child-slot range and occurrence
// range. The canonical order is computed in place by permuting child slots;
// the renaming is a sequence number per occurrence. Both outputs, the
// serialization and the tree, read that index data.

type nodeKind uint8

const (
	kRel nodeKind = iota
	kSel
	kProj
	kProd
	kUnion
	kDiff
)

// cnode is one flattened operator.
type cnode struct {
	q    Query
	kind nodeKind
	// kid/nkid: this node's child slots in canonizer.kids (node indices);
	// kidEnd: one past the last child slot of the whole subtree.
	kid, nkid, kidEnd int32
	// end: one past the subtree's last node; occ/occEnd: the subtree's
	// occurrence range (a relation's own occurrence is occ).
	end, occ, occEnd int32
	// cls/ncls: a selection's equality classes in canonizer.classes.
	cls, ncls int32
}

// cocc is one relation occurrence.
type cocc struct {
	name, base string
	bh         uint64 // hash of the base name: refinement round 0
	seq        int32  // 1-based position under the current canonical renaming
}

// cattr is an attribute of an occurrence (occ -1: not an occurrence of the
// query, which only a non-normalized input produces).
type cattr struct {
	occ  int32
	name string
}

// cclass is one equality class of a selection: members in canonizer.mems,
// distinct constants (ascending) in canonizer.csts.
type cclass struct {
	mem, nmem, cst, ncst int32
}

// trivial reports a class that constrains nothing: a lone attribute with
// no constant, left behind by a reflexive atom a = a.
func (k cclass) trivial() bool { return k.nmem == 1 && k.ncst == 0 }

// sortKey orders one child slot: rank first (non-relation product leaves
// before relation leaves), then the refinement signature or the subtree
// digest.
type sortKey struct {
	kid  int32
	rank uint8
	h    uint64
}

// cpred is one canonical equality atom: l = r, or l = v when isConst.
type cpred struct {
	l, r    cattr
	v       value.Value
	isConst bool
}

type canonizer struct {
	nodes   []cnode
	kids    []int32
	occs    []cocc
	byName  []int32 // occurrence indices sorted by name
	classes []cclass
	mems    []cattr
	csts    []value.Value

	// Refinement state, per occurrence: head features (round-invariant),
	// the previous round's signatures, and this round's.
	head, cur, sig []uint64
	sigs           []uint64 // scratch for the distinctness check

	// Stacks: child orders saved around a subtree digest, sort keys of the
	// groups being ordered, canonical predicates being emitted.
	saved []int32
	keys  []sortKey
	preds []cpred

	// Per-selection union-find scratch.
	ufAttr   []cattr
	ufParent []int32
	ufOrder  []int32
	ufConst  []constRef

	buf []byte
}

// constRef attaches a constant to a union-find attribute.
type constRef struct {
	attr int32
	v    value.Value
}

var canonizers = sync.Pool{New: func() any { return new(canonizer) }}

func getCanonizer() *canonizer { return canonizers.Get().(*canonizer) }

// putCanonizer drops the references the scratch holds into the query and
// returns it to the pool; scratch grown by an outsized query is left to
// the collector instead.
func putCanonizer(c *canonizer) {
	if len(c.nodes) > 1024 || len(c.buf) > 1<<16 {
		return
	}
	clear(c.nodes)
	clear(c.occs)
	clear(c.mems)
	clear(c.csts)
	clear(c.preds)
	clear(c.ufAttr)
	clear(c.ufConst)
	canonizers.Put(c)
}

// canonicalize flattens norm and computes its canonical order and renaming.
func (c *canonizer) canonicalize(norm Query) {
	c.nodes, c.kids, c.occs, c.byName = c.nodes[:0], c.kids[:0], c.occs[:0], c.byName[:0]
	c.classes, c.mems, c.csts = c.classes[:0], c.mems[:0], c.csts[:0]
	c.saved, c.keys, c.preds, c.buf = c.saved[:0], c.keys[:0], c.preds[:0], c.buf[:0]
	c.build(norm)
	for i := range c.occs {
		c.byName = append(c.byName, int32(i))
	}
	slices.SortFunc(c.byName, func(a, b int32) int { return strings.Compare(c.occs[a].name, c.occs[b].name) })
	for i := range c.nodes {
		if c.nodes[i].kind == kSel {
			c.selClasses(int32(i))
		}
	}
	n := int32(len(c.occs))
	c.head, c.cur, c.sig = grow(c.head, n), grow(c.cur, n), grow(c.sig, n)
	c.signatures(0)
	c.order(0, false)
	c.number(0)
}

func grow(s []uint64, n int32) []uint64 {
	if int32(cap(s)) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// --- flattening -------------------------------------------------------------

// build appends the pre-order records of q's subtree and returns its node
// index.
func (c *canonizer) build(q Query) int32 {
	n := int32(len(c.nodes))
	c.nodes = append(c.nodes, cnode{q: q, occ: int32(len(c.occs))})
	switch t := q.(type) {
	case *Relation:
		c.nodes[n].kind = kRel
		c.occs = append(c.occs, cocc{name: t.Name, base: t.Base, bh: hashStr(tagBase, t.Base)})
	case *Select:
		c.nodes[n].kind = kSel
		c.buildKids(n, 1)
		c.kids[c.nodes[n].kid] = c.build(t.In)
	case *Project:
		c.nodes[n].kind = kProj
		c.buildKids(n, 1)
		c.kids[c.nodes[n].kid] = c.build(t.In)
	case *Product:
		c.nodes[n].kind = kProd
		c.buildKids(n, countLeaves(q, kProd))
		c.buildLeaves(q, kProd, c.nodes[n].kid)
	case *Union:
		c.nodes[n].kind = kUnion
		c.buildKids(n, countLeaves(q, kUnion))
		c.buildLeaves(q, kUnion, c.nodes[n].kid)
	case *Diff:
		c.nodes[n].kind = kDiff
		c.buildKids(n, 2)
		c.kids[c.nodes[n].kid] = c.build(t.L)
		c.kids[c.nodes[n].kid+1] = c.build(t.R)
	default:
		panic("ra: unknown query node")
	}
	nd := &c.nodes[n]
	nd.end, nd.kidEnd, nd.occEnd = int32(len(c.nodes)), int32(len(c.kids)), int32(len(c.occs))
	return n
}

// buildKids reserves k child slots for node n.
func (c *canonizer) buildKids(n, k int32) {
	c.nodes[n].kid, c.nodes[n].nkid = int32(len(c.kids)), k
	for ; k > 0; k-- {
		c.kids = append(c.kids, -1)
	}
}

// countLeaves counts the operands of a flattened product or union tree.
func countLeaves(q Query, kind nodeKind) int32 {
	switch t := q.(type) {
	case *Product:
		if kind == kProd {
			return countLeaves(t.L, kind) + countLeaves(t.R, kind)
		}
	case *Union:
		if kind == kUnion {
			return countLeaves(t.L, kind) + countLeaves(t.R, kind)
		}
	}
	return 1
}

// buildLeaves builds the operands of a flattened product or union tree
// left to right into the child slots starting at slot, returning the next
// free slot.
func (c *canonizer) buildLeaves(q Query, kind nodeKind, slot int32) int32 {
	switch t := q.(type) {
	case *Product:
		if kind == kProd {
			return c.buildLeaves(t.R, kind, c.buildLeaves(t.L, kind, slot))
		}
	case *Union:
		if kind == kUnion {
			return c.buildLeaves(t.R, kind, c.buildLeaves(t.L, kind, slot))
		}
	}
	c.kids[slot] = c.build(q)
	return slot + 1
}

// lookup returns the occurrence named name, or -1.
func (c *canonizer) lookup(name string) int32 {
	i, ok := slices.BinarySearchFunc(c.byName, name, func(o int32, name string) int {
		return strings.Compare(c.occs[o].name, name)
	})
	if !ok {
		return -1
	}
	return c.byName[i]
}

// --- equality classes -------------------------------------------------------

// selClasses computes the equality classes of selection n by union-find
// over the attributes its atoms mention, constants attached to their
// attribute's class, duplicates folded.
func (c *canonizer) selClasses(n int32) {
	sel := c.nodes[n].q.(*Select)
	c.ufAttr, c.ufParent, c.ufConst = c.ufAttr[:0], c.ufParent[:0], c.ufConst[:0]
	for _, p := range sel.Preds {
		switch t := p.(type) {
		case EqAttr:
			c.union(c.ufIndex(t.L), c.ufIndex(t.R))
		case EqConst:
			c.ufConst = append(c.ufConst, constRef{attr: c.ufIndex(t.A), v: t.C})
		}
	}
	// Group the attributes by root, then cut runs into classes.
	c.ufOrder = c.ufOrder[:0]
	for i := range c.ufAttr {
		c.ufParent[i] = c.find(int32(i))
		c.ufOrder = append(c.ufOrder, int32(i))
	}
	slices.SortFunc(c.ufOrder, func(a, b int32) int {
		if d := c.ufParent[a] - c.ufParent[b]; d != 0 {
			return int(d)
		}
		return int(a - b)
	})
	for i := range c.ufConst {
		c.ufConst[i].attr = c.ufParent[c.ufConst[i].attr]
	}
	slices.SortFunc(c.ufConst, func(a, b constRef) int {
		if d := a.attr - b.attr; d != 0 {
			return int(d)
		}
		return compareValues(a.v, b.v)
	})
	nd := &c.nodes[n]
	nd.cls = int32(len(c.classes))
	j := 0
	for i := 0; i < len(c.ufOrder); {
		root := c.ufParent[c.ufOrder[i]]
		k := cclass{mem: int32(len(c.mems)), cst: int32(len(c.csts))}
		for ; i < len(c.ufOrder) && c.ufParent[c.ufOrder[i]] == root; i++ {
			c.mems = append(c.mems, c.ufAttr[c.ufOrder[i]])
		}
		for ; j < len(c.ufConst) && c.ufConst[j].attr == root; j++ {
			if v := c.ufConst[j].v; j == 0 || c.ufConst[j-1].attr != root || c.ufConst[j-1].v != v {
				c.csts = append(c.csts, v)
			}
		}
		k.nmem, k.ncst = int32(len(c.mems))-k.mem, int32(len(c.csts))-k.cst
		c.classes = append(c.classes, k)
	}
	nd.ncls = int32(len(c.classes)) - nd.cls
}

// ufIndex returns the union-find index of attribute a, registering it.
func (c *canonizer) ufIndex(a Attr) int32 {
	occ := c.lookup(a.Rel)
	for i, x := range c.ufAttr {
		if x.occ == occ && x.name == a.Name {
			return int32(i)
		}
	}
	c.ufAttr = append(c.ufAttr, cattr{occ: occ, name: a.Name})
	c.ufParent = append(c.ufParent, int32(len(c.ufParent)))
	return int32(len(c.ufAttr) - 1)
}

func (c *canonizer) find(i int32) int32 {
	for c.ufParent[i] != i {
		c.ufParent[i] = c.ufParent[c.ufParent[i]]
		i = c.ufParent[i]
	}
	return i
}

func (c *canonizer) union(a, b int32) {
	if ra, rb := c.find(a), c.find(b); ra != rb {
		c.ufParent[max(ra, rb)] = min(ra, rb)
	}
}

// classOf returns the class of selection node sel containing a, or -1.
func (c *canonizer) classOf(sel int32, a Attr) int32 {
	occ := c.lookup(a.Rel)
	nd := &c.nodes[sel]
	for k := nd.cls; k < nd.cls+nd.ncls; k++ {
		cl := c.classes[k]
		for _, m := range c.mems[cl.mem : cl.mem+cl.nmem] {
			if m.occ == occ && m.name == a.Name {
				return k
			}
		}
	}
	return -1
}

// compareValues orders constants: by kind, then payload.
func compareValues(a, b value.Value) int {
	if a.K != b.K {
		return int(a.K) - int(b.K)
	}
	switch a.K {
	case value.Int:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case value.Str:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// --- occurrence signatures --------------------------------------------------

// Fixed, unseeded hashing: the refinement decides the canonical order, so
// it must be the same in every process for keys to be stable.
const (
	tagBase  = 0x6a09e667f3bcc908
	tagHead  = 0xbb67ae8584caa73b
	tagEq    = 0x3c6ef372fe94f82b
	tagConst = 0xa54ff53a5f1d36f1
)

// mix is the splitmix64 finalizer: a bijective avalanche.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// hash2 combines two hashes, order-sensitively.
func hash2(a, b uint64) uint64 { return mix(a*0x9e3779b97f4a7c15 ^ b) }

// hashStr is FNV-1a over s from seed, finished with its length.
func hashStr(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return hash2(h, uint64(len(s)))
}

func hashValue(v value.Value) uint64 {
	switch v.K {
	case value.Int:
		return hash2(1, uint64(v.I))
	case value.Str:
		return hashStr(2, v.S)
	}
	return 3
}

// signatures assigns every occurrence of subtree n a name-independent
// structural signature by colour refinement: round 0 is the base relation;
// a round folds in the occurrence's head features (the output positions of
// its attributes — a projected attribute stands for its whole equality
// class, π_a(σ_{a=b}E) ≡ π_b(σ_{a=b}E), so the feature attaches to every
// member) and, per non-trivial equality class it belongs to, the attribute,
// the multiset of its partners (by previous-round signature) and the bound
// constants. Multisets are sums of mixed hashes, so no feature list is
// sorted. A second round runs only when the first leaves duplicate
// signatures — a property of the signature multiset, not of occurrence
// order, so the adaptive cutoff is itself canonical.
func (c *canonizer) signatures(n int32) {
	nd := c.nodes[n]
	for o := nd.occ; o < nd.occEnd; o++ {
		c.head[o] = 0
		c.cur[o] = c.occs[o].bh
	}
	for i := n; i < nd.end; i++ {
		p := &c.nodes[i]
		if p.kind != kProj {
			continue
		}
		sel := c.kids[p.kid]
		if c.nodes[sel].kind != kSel {
			sel = -1
		}
		for pos, a := range p.q.(*Project).Attrs {
			k := int32(-1)
			if sel >= 0 {
				k = c.classOf(sel, a)
			}
			if k < 0 {
				if o := c.lookup(a.Rel); o >= 0 {
					c.head[o] += mix(hashStr(hash2(tagHead, uint64(pos)), a.Name))
				}
				continue
			}
			cl := c.classes[k]
			for _, m := range c.mems[cl.mem : cl.mem+cl.nmem] {
				if m.occ >= 0 {
					c.head[m.occ] += mix(hashStr(hash2(tagHead, uint64(pos)), m.name))
				}
			}
		}
	}
	c.round(n)
	if c.distinct(n) {
		return
	}
	copy(c.cur[nd.occ:nd.occEnd], c.sig[nd.occ:nd.occEnd])
	c.round(n)
}

// round computes c.sig from c.cur for subtree n.
func (c *canonizer) round(n int32) {
	nd := c.nodes[n]
	for o := nd.occ; o < nd.occEnd; o++ {
		c.sig[o] = c.head[o] // accumulates the feature multiset first
	}
	for i := n; i < nd.end; i++ {
		s := &c.nodes[i]
		if s.kind != kSel {
			continue
		}
		for _, cl := range c.classes[s.cls : s.cls+s.ncls] {
			if cl.trivial() {
				continue
			}
			ch := uint64(tagConst)
			for _, v := range c.csts[cl.cst : cl.cst+cl.ncst] {
				ch = hash2(ch, hashValue(v))
			}
			mems := c.mems[cl.mem : cl.mem+cl.nmem]
			var all uint64
			for _, m := range mems {
				all += c.partner(m)
			}
			for _, m := range mems {
				if m.occ < 0 {
					continue
				}
				f := hash2(hash2(hashStr(tagEq, m.name), all-c.partner(m)), ch)
				c.sig[m.occ] += mix(f)
			}
		}
	}
	for o := nd.occ; o < nd.occEnd; o++ {
		c.sig[o] = hash2(c.occs[o].bh, c.sig[o])
	}
}

// partner is attribute m's contribution to its class partners' features.
func (c *canonizer) partner(m cattr) uint64 {
	var h uint64
	if m.occ >= 0 {
		h = c.cur[m.occ]
	}
	return mix(hashStr(h, m.name))
}

// distinct reports whether subtree n's signatures are pairwise distinct.
func (c *canonizer) distinct(n int32) bool {
	nd := c.nodes[n]
	c.sigs = append(c.sigs[:0], c.sig[nd.occ:nd.occEnd]...)
	slices.Sort(c.sigs)
	for i := 1; i < len(c.sigs); i++ {
		if c.sigs[i] == c.sigs[i-1] {
			return false
		}
	}
	return true
}

// --- canonical order --------------------------------------------------------

// order reorders the commutative structure of subtree n in place.
// sortable reports whether the subtree's column order is insulated from
// the result by an enclosing projection (columns addressed by name), so a
// product's leaves may be reordered; union and difference consume columns
// positionally and reset it. Product leaves sort stably by signature
// (relations) or subtree digest (anything else, ahead of the relations);
// union operands always sort, by subtree digest.
func (c *canonizer) order(n int32, sortable bool) {
	nd := c.nodes[n]
	switch nd.kind {
	case kProj:
		c.order(c.kids[nd.kid], true)
	case kSel:
		c.order(c.kids[nd.kid], sortable)
	case kProd, kUnion:
		if nd.kind == kUnion {
			sortable = false
		}
		for i := nd.kid; i < nd.kid+nd.nkid; i++ {
			c.order(c.kids[i], sortable)
		}
		if nd.kind == kProd && !sortable {
			return
		}
		base := len(c.keys)
		for i := nd.kid; i < nd.kid+nd.nkid; i++ {
			c.keys = append(c.keys, sortKey{kid: c.kids[i]})
		}
		// Digests recurse into order (pushing their own keys above ours),
		// so fill the keys by index after reserving them.
		for i := base; i < base+int(nd.nkid); i++ {
			k := c.keys[i].kid
			if nd.kind == kProd && c.nodes[k].kind == kRel {
				c.keys[i].rank, c.keys[i].h = 1, c.sig[c.nodes[k].occ]
			} else {
				// digest may grow c.keys: take the value before indexing.
				h := c.digest(k)
				c.keys[i].h = h
			}
		}
		keys := c.keys[base:]
		slices.SortStableFunc(keys, func(a, b sortKey) int {
			if a.rank != b.rank {
				return int(a.rank) - int(b.rank)
			}
			switch {
			case a.h < b.h:
				return -1
			case a.h > b.h:
				return 1
			}
			return 0
		})
		for i, k := range keys {
			c.kids[nd.kid+int32(i)] = k.kid
		}
		c.keys = c.keys[:base]
	case kDiff:
		c.order(c.kids[nd.kid], false)
		c.order(c.kids[nd.kid+1], false)
	}
}

// digest is the order key of subtree n inside its group: the hash of n's
// standalone canonical serialization (its own signatures, order and
// renaming), so it depends on n's shape and never on occurrence names.
// The subtree's child order is restored afterwards; its signatures are
// not, which is safe because the enclosing group reads signatures only of
// its own relation leaves, and a subtree's inner groups are ordered
// before its digest is taken.
func (c *canonizer) digest(n int32) uint64 {
	nd := c.nodes[n]
	saved := len(c.saved)
	c.saved = append(c.saved, c.kids[nd.kid:nd.kidEnd]...)
	c.signatures(n)
	c.order(n, false)
	c.number(n)
	mark := len(c.buf)
	c.serialize(n)
	k := sha256.Sum256(c.buf[mark:])
	c.buf = c.buf[:mark]
	copy(c.kids[nd.kid:nd.kidEnd], c.saved[saved:])
	c.saved = c.saved[:saved]
	return binary.LittleEndian.Uint64(k[:8])
}

// number assigns the canonical renaming of subtree n: occurrences are
// numbered 1, 2, ... in canonical left-to-right order.
func (c *canonizer) number(n int32) {
	seq := int32(0)
	c.numberFrom(n, &seq)
}

func (c *canonizer) numberFrom(n int32, seq *int32) {
	nd := &c.nodes[n]
	if nd.kind == kRel {
		*seq++
		c.occs[nd.occ].seq = *seq
		return
	}
	for i := nd.kid; i < nd.kid+nd.nkid; i++ {
		c.numberFrom(c.kids[i], seq)
	}
}

// --- canonical predicates ---------------------------------------------------

// attrCmp orders attributes under the current renaming: by occurrence
// sequence number, then attribute name.
func (c *canonizer) attrCmp(a, b cattr) int {
	if sa, sb := c.seqOf(a), c.seqOf(b); sa != sb {
		return int(sa - sb)
	}
	return strings.Compare(a.name, b.name)
}

func (c *canonizer) seqOf(a cattr) int32 {
	if a.occ < 0 {
		return 0
	}
	return c.occs[a.occ].seq
}

// rep returns the representative of class k: its least member.
func (c *canonizer) rep(k int32) cattr {
	cl := c.classes[k]
	r := c.mems[cl.mem]
	for _, m := range c.mems[cl.mem+1 : cl.mem+cl.nmem] {
		if c.attrCmp(m, r) < 0 {
			r = m
		}
	}
	return r
}

// pushPreds pushes the canonical atoms of selection n onto c.preds and
// returns where they start: per class, the representative equals every
// other member and each distinct constant. This folds duplicate atoms,
// drops reflexive ones, and makes chain- and star-shaped conditions with
// the same closure identical; a class bound to two constants keeps both
// atoms (the selection is provably empty, and canonical form preserves
// that). Atoms are ordered by left attribute, attribute atoms before
// constant atoms, then right attribute or constant.
func (c *canonizer) pushPreds(n int32) int {
	base := len(c.preds)
	nd := &c.nodes[n]
	for k := nd.cls; k < nd.cls+nd.ncls; k++ {
		cl := c.classes[k]
		r := c.rep(k)
		for _, m := range c.mems[cl.mem : cl.mem+cl.nmem] {
			if m != r {
				c.preds = append(c.preds, cpred{l: r, r: m})
			}
		}
		for _, v := range c.csts[cl.cst : cl.cst+cl.ncst] {
			c.preds = append(c.preds, cpred{l: r, v: v, isConst: true})
		}
	}
	slices.SortFunc(c.preds[base:], func(a, b cpred) int {
		if d := c.attrCmp(a.l, b.l); d != 0 {
			return d
		}
		if a.isConst != b.isConst {
			if a.isConst {
				return 1
			}
			return -1
		}
		if a.isConst {
			return compareValues(a.v, b.v)
		}
		return c.attrCmp(a.r, b.r)
	})
	return base
}

// projected returns the i-th attribute of projection n folded onto its
// class representative in the selection directly below, if any.
func (c *canonizer) projected(n int32, a Attr) cattr {
	if sel := c.kids[c.nodes[n].kid]; c.nodes[sel].kind == kSel {
		if k := c.classOf(sel, a); k >= 0 {
			return c.rep(k)
		}
	}
	return cattr{occ: c.lookup(a.Rel), name: a.Name}
}

// --- output: serialization --------------------------------------------------

// serialize appends the canonical serialization of subtree n to c.buf: the
// text of the canonical tree Canonical builds, operator by operator —
// rel(base as base~n), sel[atoms](…), proj[attrs](…), and left-deep
// prod(…,…), uni(…,…), diff(…,…). Equal serializations mean identical
// canonical trees.
func (c *canonizer) serialize(n int32) {
	nd := &c.nodes[n]
	switch nd.kind {
	case kRel:
		o := &c.occs[nd.occ]
		c.buf = append(c.buf, "rel("...)
		c.buf = append(c.buf, o.base...)
		c.buf = append(c.buf, " as "...)
		c.appendOcc(nd.occ)
		c.buf = append(c.buf, ')')
	case kSel:
		base := c.pushPreds(n)
		if len(c.preds) == base {
			c.serialize(c.kids[nd.kid])
			return
		}
		c.buf = append(c.buf, "sel["...)
		for i, p := range c.preds[base:] {
			if i > 0 {
				c.buf = append(c.buf, ';')
			}
			c.appendAttr(p.l)
			c.buf = append(c.buf, " = "...)
			if p.isConst {
				c.buf = appendSQL(c.buf, p.v)
			} else {
				c.appendAttr(p.r)
			}
		}
		c.preds = c.preds[:base]
		c.buf = append(c.buf, "]("...)
		c.serialize(c.kids[nd.kid])
		c.buf = append(c.buf, ')')
	case kProj:
		c.buf = append(c.buf, "proj["...)
		for i, a := range nd.q.(*Project).Attrs {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			c.appendAttr(c.projected(n, a))
		}
		c.buf = append(c.buf, "]("...)
		c.serialize(c.kids[nd.kid])
		c.buf = append(c.buf, ')')
	case kProd, kUnion, kDiff:
		tag := "prod("
		switch nd.kind {
		case kUnion:
			tag = "uni("
		case kDiff:
			tag = "diff("
		}
		for i := int32(1); i < nd.nkid; i++ {
			c.buf = append(c.buf, tag...)
		}
		c.serialize(c.kids[nd.kid])
		for i := nd.kid + 1; i < nd.kid+nd.nkid; i++ {
			c.buf = append(c.buf, ',')
			c.serialize(c.kids[i])
			c.buf = append(c.buf, ')')
		}
	}
}

// appendOcc appends occurrence o's canonical name, base~seq.
func (c *canonizer) appendOcc(o int32) {
	c.buf = append(c.buf, c.occs[o].base...)
	c.buf = append(c.buf, '~')
	c.buf = strconv.AppendInt(c.buf, int64(c.occs[o].seq), 10)
}

func (c *canonizer) appendAttr(a cattr) {
	if a.occ >= 0 {
		c.appendOcc(a.occ)
	} else {
		c.buf = append(c.buf, '?')
	}
	c.buf = append(c.buf, '.')
	c.buf = append(c.buf, a.name...)
}

// appendSQL appends v's SQL literal (value.Value.SQL) without building it.
func appendSQL(b []byte, v value.Value) []byte {
	switch v.K {
	case value.Int:
		return strconv.AppendInt(b, v.I, 10)
	case value.Str:
		b = append(b, '\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				b = append(b, '\'')
			}
			b = append(b, v.S[i])
		}
		return append(b, '\'')
	}
	return append(b, "NULL"...)
}

// --- output: tree ----------------------------------------------------------

// tree builds the canonical tree of subtree n: the tree serialize renders.
func (c *canonizer) tree(n int32) Query {
	nd := &c.nodes[n]
	switch nd.kind {
	case kRel:
		return &Relation{Name: c.attrRel(nd.occ), Base: c.occs[nd.occ].base}
	case kSel:
		base := c.pushPreds(n)
		var preds []Pred
		for _, p := range c.preds[base:] {
			if p.isConst {
				preds = append(preds, EqConst{A: c.attr(p.l), C: p.v})
			} else {
				preds = append(preds, EqAttr{L: c.attr(p.l), R: c.attr(p.r)})
			}
		}
		c.preds = c.preds[:base]
		in := c.tree(c.kids[nd.kid])
		if len(preds) == 0 {
			return in
		}
		return &Select{In: in, Preds: preds}
	case kProj:
		src := nd.q.(*Project).Attrs
		attrs := make([]Attr, len(src))
		for i, a := range src {
			attrs[i] = c.attr(c.projected(n, a))
		}
		return &Project{In: c.tree(c.kids[nd.kid]), Attrs: attrs}
	}
	out := c.tree(c.kids[nd.kid])
	for i := nd.kid + 1; i < nd.kid+nd.nkid; i++ {
		r := c.tree(c.kids[i])
		switch nd.kind {
		case kProd:
			out = &Product{L: out, R: r}
		case kUnion:
			out = &Union{L: out, R: r}
		default:
			out = &Diff{L: out, R: r}
		}
	}
	return out
}

// attrRel is occurrence o's canonical name.
func (c *canonizer) attrRel(o int32) string {
	mark := len(c.buf)
	c.appendOcc(o)
	name := string(c.buf[mark:])
	c.buf = c.buf[:mark]
	return name
}

func (c *canonizer) attr(a cattr) Attr {
	if a.occ < 0 {
		return Attr{Name: a.name}
	}
	return Attr{Rel: c.attrRel(a.occ), Name: a.name}
}
