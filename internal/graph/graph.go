// Package graph implements the undirected multigraph substrate used by every
// other package in this repository.
//
// The conventions follow the paper (Sec. III-A) and Newman's textbook: graphs
// are undirected, multiple edges and self-loops are allowed, the adjacency
// matrix entry A[i][j] is the number of edges between distinct nodes i and j,
// and A[i][i] is twice the number of self-loops at i. The degree of a node is
// the number of edge endpoints incident to it, so a self-loop contributes two
// to its node's degree and the handshake identity sum(deg) == 2m always holds.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected multigraph over dense integer node IDs 0..N()-1.
//
// The zero value is an empty graph ready to use. Neighbor lists store one
// entry per edge endpoint: an edge (u,v) appends v to adj[u] and u to adj[v];
// a self-loop (u,u) appends u to adj[u] twice.
type Graph struct {
	adj [][]int
	m   int // number of edges (a self-loop counts as one edge)

	// csr caches the compressed-sparse-row snapshot built by CSR(); every
	// mutating method resets it to nil.
	csr *CSR
}

// invalidate drops the cached CSR snapshot. Every mutating method calls it
// before changing the adjacency.
func (g *Graph) invalidate() { g.csr = nil }

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdgeLists returns the graph that New(n) followed by AddEdge(e.U, e.V)
// for every edge of lists[0], then lists[1], and so on, would hold: the same
// rows in the same per-row order, the same M, and two endpoints per
// self-loop. It counts degrees first and carves every row out of one arena,
// so it allocates per graph, not per row growth. An endpoint outside
// [0, n) panics, as AddEdge does.
func FromEdgeLists(n int, lists ...[]Edge) *Graph {
	off, arena := edgeRows[int](n, lists)
	return fromArena(off, arena)
}

// edgeRows lays out the rows FromEdgeLists documents end to end in one
// arena: row u is arena[off[u]:off[u+1]]. It is shared by the graph and
// by CSRFromEdgeLists, which needs the rows as int32.
func edgeRows[T int | int32](n int, lists [][]Edge) (off, arena []T) {
	if n < 0 {
		panic("graph: negative node count")
	}
	off = make([]T, n+1)
	for _, es := range lists {
		for _, e := range es {
			checkIndex(e.U, n)
			checkIndex(e.V, n)
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	// off[u] is row u's start. The fill advances it as u's cursor until it
	// reaches row u+1's start, so shifting off by one restores the offsets.
	arena = make([]T, off[n])
	for _, es := range lists {
		for _, e := range es {
			arena[off[e.U]] = T(e.V)
			off[e.U]++
			arena[off[e.V]] = T(e.U)
			off[e.V]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, arena
}

// fromArena returns the graph whose row u is arena[off[u]:off[u+1]]. Each
// row's capacity ends where the row does, so a later AddEdge reallocates
// the row instead of writing into the next one; an empty row stays nil, as
// in New.
func fromArena(off, arena []int) *Graph {
	g := &Graph{adj: make([][]int, len(off)-1), m: len(arena) / 2}
	for u := range g.adj {
		if lo, hi := off[u], off[u+1]; lo < hi {
			g.adj[u] = arena[lo:hi:hi]
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges. A self-loop counts as one edge.
func (g *Graph) M() int { return g.m }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() int {
	g.invalidate()
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddNodes appends k new isolated nodes and returns the ID of the first.
func (g *Graph) AddNodes(k int) int {
	g.invalidate()
	first := len(g.adj)
	g.adj = append(g.adj, make([][]int, k)...)
	return first
}

// AddEdge inserts an undirected edge between u and v. Multi-edges and
// self-loops are permitted; a self-loop adds two endpoints at u.
func (g *Graph) AddEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	g.invalidate()
	g.adj[u] = append(g.adj[u], v)
	if u != v {
		g.adj[v] = append(g.adj[v], u)
	} else {
		g.adj[u] = append(g.adj[u], u)
	}
	g.m++
}

// RemoveEdge deletes one instance of the edge (u,v). It reports whether an
// instance existed. Removing a self-loop removes both endpoints at u.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	if !g.removeEndpoint(u, v) {
		return false
	}
	g.invalidate()
	if u != v {
		if !g.removeEndpoint(v, u) {
			panic(fmt.Sprintf("graph: asymmetric adjacency between %d and %d", u, v))
		}
	} else if !g.removeEndpoint(u, u) {
		panic(fmt.Sprintf("graph: half self-loop at %d", u))
	}
	g.m--
	return true
}

func (g *Graph) removeEndpoint(u, v int) bool {
	a := g.adj[u]
	for i, w := range a {
		if w == v {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return true
		}
	}
	return false
}

// Degree returns the degree of u (self-loops count twice).
func (g *Graph) Degree(u int) int {
	g.checkNode(u)
	return len(g.adj[u])
}

// Neighbors returns the neighbor list of u. One entry per incident edge
// endpoint, so multi-edges repeat and a self-loop contributes u twice.
// The returned slice is owned by the graph and must not be mutated.
func (g *Graph) Neighbors(u int) []int {
	g.checkNode(u)
	return g.adj[u]
}

// Multiplicity returns the adjacency-matrix entry A[u][v]: the number of
// edges between distinct u and v, or twice the number of self-loops if u == v.
func (g *Graph) Multiplicity(u, v int) int {
	g.checkNode(u)
	g.checkNode(v)
	// Scan the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	c := 0
	for _, w := range g.adj[u] {
		if w == v {
			c++
		}
	}
	return c
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool { return g.Multiplicity(u, v) > 0 }

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// AvgDegree returns 2m/n, the average degree, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Edge is an undirected edge instance.
type Edge struct{ U, V int }

// Canon returns the edge with endpoints ordered U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Edges returns every edge instance exactly once, with U <= V, sorted
// lexicographically. Multi-edges appear with their multiplicity.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, a := range g.adj {
		loops := 0
		for _, v := range a {
			if v > u {
				out = append(out, Edge{u, v})
			} else if v == u {
				loops++
			}
		}
		for i := 0; i < loops/2; i++ {
			out = append(out, Edge{u, u})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// DegreeVector returns nk where nk[k] is the number of nodes with degree k,
// for k = 0..MaxDegree().
func (g *Graph) DegreeVector() []int {
	nk := make([]int, g.MaxDegree()+1)
	for _, a := range g.adj {
		nk[len(a)]++
	}
	return nk
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), m: g.m}
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	return c
}

// SortAdjacency sorts every neighbor list ascending, giving the graph a
// canonical in-memory form (useful for tests and deterministic iteration).
// It invalidates the cached CSR snapshot: its endpoint view mirrors the
// in-memory adjacency order, which this reorders.
func (g *Graph) SortAdjacency() {
	g.invalidate()
	for _, a := range g.adj {
		sort.Ints(a)
	}
}

func (g *Graph) checkNode(u int) { checkIndex(u, len(g.adj)) }

func checkIndex(u, n int) {
	if u < 0 || u >= n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, n))
	}
}

// Equal reports whether two graphs are identical as labeled multigraphs:
// same node count and the same edge multiset.
func Equal(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// Validate checks internal invariants (symmetric adjacency, handshake
// identity) and returns a descriptive error if any is violated.
func (g *Graph) Validate() error {
	ends := 0
	for u, a := range g.adj {
		ends += len(a)
		for _, v := range a {
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: node %d lists out-of-range neighbor %d", u, v)
			}
		}
	}
	if ends != 2*g.m {
		return fmt.Errorf("graph: %d endpoints but m=%d (want %d endpoints)", ends, g.m, 2*g.m)
	}
	// Fresh snapshot (not the cache: Validate must see the adjacency as-is
	// even if a caller corrupted it without going through a mutator). The
	// distinct row of u counts u's occurrences in each neighbor's list, so
	// comparing the two directions compares the two lists' counts.
	c := g.buildCSR()
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u == v {
				continue
			}
			if c.Multiplicity(u, v) != c.Multiplicity(v, u) {
				return fmt.Errorf("graph: asymmetric multiplicity between %d and %d", u, v)
			}
		}
	}
	for u, a := range g.adj {
		self := 0
		for _, v := range a {
			if v == u {
				self++
			}
		}
		if self%2 != 0 {
			return fmt.Errorf("graph: odd self-loop endpoint count at node %d", u)
		}
	}
	return nil
}
