// Package hypergraph implements the directed hypergraphs of Section 5.2:
// the ⟨Q,A⟩-hypergraph encodes induced RHS-FDs as hyperedges, hyperpaths
// from the dummy root r encode unit fetching plans (Lemma 7), and weighted
// shortest hyperpaths drive the acyclic access-minimization algorithm
// minADAG (Section 6.2).
package hypergraph

import (
	"fmt"
	"math"
	"strings"
)

// NodeID identifies a node of a Graph.
type NodeID int

// Graph is a directed hypergraph: hyperedges have a head set and a single
// tail node, following Ausiello et al. as used by the paper.
type Graph struct {
	labels  []string
	byLabel map[string]NodeID
	Edges   []Edge
	// out[v] lists edges having v in their head.
	out [][]int
}

// Edge is a hyperedge (Head, Tail) with a weight and an arbitrary payload
// (the plan generator stores the inducing constraint here).
type Edge struct {
	Head    []NodeID
	Tail    NodeID
	Weight  int64
	Payload any
}

// New returns an empty hypergraph.
func New() *Graph {
	return &Graph{byLabel: map[string]NodeID{}}
}

// Node returns the node with the given label, creating it if needed.
func (g *Graph) Node(label string) NodeID {
	if id, ok := g.byLabel[label]; ok {
		return id
	}
	id := g.NewNode()
	g.labels[id] = label
	g.byLabel[label] = id
	return id
}

// NewNode adds a node without a label: Lookup never finds it and Label
// returns "". Callers that address nodes by id alone (the minimizers'
// graphs over a prepared coverage check) build no label strings.
func (g *Graph) NewNode() NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, "")
	g.out = append(g.out, nil)
	return id
}

// Lookup returns the node for label without creating it.
func (g *Graph) Lookup(label string) (NodeID, bool) {
	id, ok := g.byLabel[label]
	return id, ok
}

// Label returns the label of node id.
func (g *Graph) Label(id NodeID) string { return g.labels[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.labels) }

// AddEdge appends a hyperedge and returns its index.
func (g *Graph) AddEdge(head []NodeID, tail NodeID, weight int64, payload any) int {
	idx := len(g.Edges)
	g.Edges = append(g.Edges, Edge{Head: head, Tail: tail, Weight: weight, Payload: payload})
	for i, h := range head {
		if !repeated(head, i) {
			g.out[h] = append(g.out[h], idx)
		}
	}
	return idx
}

// repeated reports whether head[i] already occurs in head[:i]. Heads are a
// few nodes long, so the scan beats a set.
func repeated(head []NodeID, i int) bool {
	for _, h := range head[:i] {
		if h == head[i] {
			return true
		}
	}
	return false
}

// distinctHeads is the number of distinct nodes in head.
func distinctHeads(head []NodeID) int {
	n := 0
	for i := range head {
		if !repeated(head, i) {
			n++
		}
	}
	return n
}

// Size returns |H| = Σ_e |head(e)|, the hypergraph size measure of §5.2.
func (g *Graph) Size() int {
	n := 0
	for _, e := range g.Edges {
		n += len(e.Head)
	}
	return n
}

// Derivation is the result of forward chaining from a source node: which
// nodes are derivable and, for each, the hyperedge that first derived it.
// It corresponds to the procedure findHP of algorithm QPlan.
type Derivation struct {
	g *Graph
	// Via[v] is the index of the deriving edge for v, or -1 for the source
	// and for underived nodes (check Reached).
	Via     []int
	Reached []bool
}

// Derive runs forward chaining from source: an edge fires once all its head
// nodes are derived; its tail becomes derived. O(|H|).
func (g *Graph) Derive(source NodeID) *Derivation {
	d := &Derivation{
		g:       g,
		Via:     make([]int, len(g.labels)),
		Reached: make([]bool, len(g.labels)),
	}
	for i := range d.Via {
		d.Via[i] = -1
	}
	need := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		need[i] = distinctHeads(e.Head)
	}
	d.Reached[source] = true
	queue := []NodeID{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ei := range g.out[v] {
			need[ei]--
			if need[ei] == 0 {
				t := g.Edges[ei].Tail
				if !d.Reached[t] {
					d.Reached[t] = true
					d.Via[t] = ei
					queue = append(queue, t)
				}
			}
		}
	}
	return d
}

// Hyperpath extracts a hyperpath from the derivation source to target as an
// ordered, de-duplicated edge sequence e1..ek satisfying the hyperpath
// conditions of Section 5.2. The boolean is false when target is unreachable.
func (d *Derivation) Hyperpath(target NodeID) ([]int, bool) {
	if int(target) >= len(d.Reached) || !d.Reached[target] {
		return nil, false
	}
	var order []int
	inOrder := map[int]bool{}
	var visit func(NodeID)
	visit = func(v NodeID) {
		ei := d.Via[v]
		if ei < 0 || inOrder[ei] {
			return
		}
		// Mark before recursing: Via edges form a DAG over derivation
		// order, so each head node was derived strictly earlier.
		for _, h := range d.g.Edges[ei].Head {
			visit(h)
		}
		if !inOrder[ei] {
			inOrder[ei] = true
			order = append(order, ei)
		}
	}
	visit(target)
	return order, true
}

// Costs holds minimum-weight derivation costs from a source, where the cost
// of deriving a node through edge e is w(e) plus the sum of the costs of
// e's head nodes (the superior-branching/derivation-tree measure; exact on
// the tree-shaped hyperpaths the ⟨Q,A⟩-hypergraph produces).
type Costs struct {
	Dist []int64
	Via  []int
}

const inf = math.MaxInt64 / 4

// ShortestHyperpaths computes minimum-cost derivations from source using a
// Dijkstra-style algorithm: an edge relaxes once all head nodes are
// finalized. Weights must be non-negative.
func (g *Graph) ShortestHyperpaths(source NodeID) *Costs {
	c := &Costs{
		Dist: make([]int64, len(g.labels)),
		Via:  make([]int, len(g.labels)),
	}
	for i := range c.Dist {
		c.Dist[i] = inf
		c.Via[i] = -1
	}
	c.Dist[source] = 0

	need := make([]int, len(g.Edges))
	headCost := make([]int64, len(g.Edges))
	for i, e := range g.Edges {
		need[i] = distinctHeads(e.Head)
	}

	var pq nodeHeap
	pq.push(nodeDist{source, 0})
	done := make([]bool, len(g.labels))
	for len(pq) > 0 {
		nd := pq.pop()
		v := nd.id
		if done[v] || nd.d > c.Dist[v] {
			continue
		}
		done[v] = true
		for _, ei := range g.out[v] {
			need[ei]--
			headCost[ei] += c.Dist[v]
			if need[ei] == 0 {
				e := g.Edges[ei]
				nd := headCost[ei] + e.Weight
				if nd < c.Dist[e.Tail] {
					c.Dist[e.Tail] = nd
					c.Via[e.Tail] = ei
					pq.push(nodeDist{e.Tail, nd})
				}
			}
		}
	}
	return c
}

// HyperpathEdges extracts the edge set of the minimum-cost derivation of
// target recorded in c, in firing order.
func (c *Costs) HyperpathEdges(g *Graph, target NodeID) ([]int, bool) {
	if c.Dist[target] >= inf {
		return nil, false
	}
	var order []int
	inOrder := make([]bool, len(g.Edges))
	visited := make([]bool, len(g.labels))
	var visit func(NodeID)
	visit = func(v NodeID) {
		if visited[v] {
			return
		}
		visited[v] = true
		ei := c.Via[v]
		if ei < 0 {
			return
		}
		for _, h := range g.Edges[ei].Head {
			visit(h)
		}
		if !inOrder[ei] {
			inOrder[ei] = true
			order = append(order, ei)
		}
	}
	visit(target)
	return order, true
}

// Acyclic reports whether the derived digraph G (replace each hyperedge
// ({u1..up}, v) by edges ui→v) is acyclic — the "acyclic case" of §6.
func (g *Graph) Acyclic() bool {
	indeg := make([]int, len(g.labels))
	adj := make([][]NodeID, len(g.labels))
	for _, e := range g.Edges {
		for _, h := range e.Head {
			adj[h] = append(adj[h], e.Tail)
			indeg[e.Tail]++
		}
	}
	var queue []NodeID
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == len(g.labels)
}

// String renders the hypergraph for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for i, e := range g.Edges {
		heads := make([]string, len(e.Head))
		for j, h := range e.Head {
			heads[j] = g.labels[h]
		}
		fmt.Fprintf(&sb, "e%d: {%s} -> %s (w=%d)\n", i, strings.Join(heads, ","), g.labels[e.Tail], e.Weight)
	}
	return sb.String()
}

type nodeDist struct {
	id NodeID
	d  int64
}

// nodeHeap is a binary min-heap on d. push and pop are container/heap's
// Push and Pop specialized to nodeDist, so no element is boxed; they move
// elements exactly as container/heap does, which keeps the order of
// equal-distance pops, and so the hyperpaths chosen, unchanged.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *nodeHeap) pop() nodeDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].d < q[j1].d {
			j = j2
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	*h = q[:n]
	return x
}
