package graph

import (
	"fmt"
	"math"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph: the shared
// read path for everything that only consumes adjacency — property
// computation, the evaluation harness, the oracle server, and the
// multiplicity probes of Graph.Validate and the restoration post-condition.
// It is one of three adjacency forms in production code, next to the
// Graph's own mutable neighbor lists and the rewiring engine's sorted rows
// (internal/dkseries), which start as a mutable copy of the distinct view
// of a snapshot that CSRFromEdgeLists builds without a Graph. It carries
// two views of every node's row, both int32-indexed and carved out of flat
// arrays so hot loops touch contiguous memory instead of chasing [][]int:
//
//   - the endpoint view (Endpoints): one entry per incident edge endpoint in
//     the graph's original adjacency order — multi-edges repeat, a self-loop
//     contributes the node twice. This is the view whose order is
//     protocol-visible (the oracle serves neighbor pages from it zero-copy)
//     and whose iteration order float accumulations depend on.
//   - the distinct view (Row): distinct non-self neighbors in ascending
//     order with a parallel edge-multiplicity array, plus a per-node
//     self-loop count. Sorted rows turn neighborhood intersection — the
//     kernel of triangle counting and shared-partner statistics — into
//     scans of contiguous rows, and make float accumulation order
//     reproducible.
//
// Obtain one via Graph.CSR(), cached on the graph and invalidated by every
// mutating method, or from edge lists via CSRFromEdgeLists. A CSR handle
// held across a mutation keeps answering for the snapshot it was built
// from. A CSR is safe for concurrent readers.
type CSR struct {
	n int
	m int

	// Endpoint view: endpoints[endOff[u]:endOff[u+1]] is u's neighbor list
	// in original adjacency order.
	endOff    []int32
	endpoints []int32

	// Distinct view: nbr/mult[off[u]:off[u+1]] are u's distinct non-self
	// neighbors ascending with multiplicities; loops[u] counts self-loops.
	off   []int32
	nbr   []int32
	mult  []int32
	loops []int32

	maxDeg int
}

// CSR returns the graph's CSR snapshot, building it on first use in
// O(n + m) and caching it on the graph. Any mutation (AddEdge, RemoveEdge,
// AddNode, AddNodes, SortAdjacency) invalidates the cache, so a later CSR()
// call rebuilds. Building is not goroutine-safe: call CSR() once before
// sharing a graph across goroutines that read it.
func (g *Graph) CSR() *CSR {
	if g.csr == nil {
		g.csr = g.buildCSR()
	}
	return g.csr
}

// buildCSR constructs a fresh snapshot from the current adjacency lists:
// the endpoint view flattens them verbatim.
func (g *Graph) buildCSR() *CSR {
	ends := 0
	for _, a := range g.adj {
		ends += len(a)
	}
	checkCSRSize(len(g.adj), ends)
	endOff := make([]int32, len(g.adj)+1)
	endpoints := make([]int32, 0, ends)
	for u, a := range g.adj {
		for _, v := range a {
			endpoints = append(endpoints, int32(v))
		}
		endOff[u+1] = int32(len(endpoints))
	}
	return newCSR(endOff, endpoints)
}

// CSRFromEdgeLists returns the snapshot FromEdgeLists(n, lists...).CSR()
// would return, built from the edge lists without the graph, for readers
// that need only the snapshot. An endpoint outside [0, n) panics.
func CSRFromEdgeLists(n int, lists ...[]Edge) *CSR {
	ends := 0
	for _, es := range lists {
		ends += 2 * len(es)
	}
	checkCSRSize(n, ends)
	endOff, endpoints := edgeRows[int32](n, lists)
	return newCSR(endOff, endpoints)
}

func checkCSRSize(n, ends int) {
	if n > math.MaxInt32 || ends > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes, %d edge endpoints exceed the CSR int32 index space", n, ends))
	}
}

// newCSR completes a snapshot from its endpoint view. It is the one
// builder of sorted distinct rows: they come out sorted without any
// per-row sort, because scanning source nodes v in ascending order and
// appending v to each neighbor's row produces ascending rows with
// duplicate endpoints adjacent, so multiplicities compress on the fly.
func newCSR(endOff, endpoints []int32) *CSR {
	n := len(endOff) - 1
	c := &CSR{
		n:         n,
		m:         len(endpoints) / 2,
		endOff:    endOff,
		endpoints: endpoints,
		off:       make([]int32, n+1),
		loops:     make([]int32, n),
	}
	// Distinct view, pass 1: count each row's distinct non-self neighbors.
	// lastSeen[u] tracks the previous v appended to u's row; v ascends, so
	// a repeat of the same v is always immediately preceding.
	lastSeen := make([]int32, n)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	cnt := make([]int32, n)
	for v := 0; v < n; v++ {
		c.maxDeg = max(c.maxDeg, c.Degree(v))
		for _, u := range c.Endpoints(v) {
			if int(u) == v {
				continue
			}
			if lastSeen[u] != int32(v) {
				lastSeen[u] = int32(v)
				cnt[u]++
			}
		}
	}
	total := int32(0)
	for u := 0; u < n; u++ {
		c.off[u] = total
		total += cnt[u]
	}
	c.off[n] = total
	c.nbr = make([]int32, total)
	c.mult = make([]int32, total)

	// Pass 2: fill rows in ascending neighbor order, compressing runs of
	// the same v into one slot with a multiplicity count.
	fill := make([]int32, n)
	copy(fill, c.off[:n])
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for v := 0; v < n; v++ {
		loopEnds := int32(0)
		for _, u := range c.Endpoints(v) {
			if int(u) == v {
				loopEnds++
				continue
			}
			if lastSeen[u] == int32(v) {
				c.mult[fill[u]-1]++
			} else {
				lastSeen[u] = int32(v)
				c.nbr[fill[u]] = int32(v)
				c.mult[fill[u]] = 1
				fill[u]++
			}
		}
		c.loops[v] = loopEnds / 2
	}
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// M returns the number of edges (a self-loop counts as one edge).
func (c *CSR) M() int { return c.m }

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (c *CSR) MaxDegree() int { return c.maxDeg }

// Degree returns the degree of u (self-loops count twice).
func (c *CSR) Degree(u int) int { return int(c.endOff[u+1] - c.endOff[u]) }

// Endpoints returns u's neighbor list in the graph's original adjacency
// order, one entry per incident edge endpoint (multi-edges repeat, a
// self-loop contributes u twice). The slice aliases the snapshot and must
// not be mutated.
func (c *CSR) Endpoints(u int) []int32 {
	return c.endpoints[c.endOff[u]:c.endOff[u+1]]
}

// Row returns u's distinct non-self neighbors in ascending order and the
// parallel edge multiplicities. The slices alias the snapshot and must not
// be mutated.
func (c *CSR) Row(u int) (nbr, mult []int32) {
	lo, hi := c.off[u], c.off[u+1]
	return c.nbr[lo:hi], c.mult[lo:hi]
}

// DistinctDegree returns the number of distinct non-self neighbors of u.
func (c *CSR) DistinctDegree(u int) int { return int(c.off[u+1] - c.off[u]) }

// Loops returns the number of self-loops at u.
func (c *CSR) Loops(u int) int { return int(c.loops[u]) }

// Multiplicity returns the adjacency-matrix entry A[u][v] by binary search
// on u's sorted distinct row: the number of edges between distinct u and v,
// or twice the number of self-loops if u == v.
func (c *CSR) Multiplicity(u, v int) int {
	if u == v {
		return 2 * int(c.loops[u])
	}
	nbr, mult := c.Row(u)
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbr[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbr) && nbr[lo] == int32(v) {
		return int(mult[lo])
	}
	return 0
}

// HasEdge reports whether at least one edge joins u and v.
func (c *CSR) HasEdge(u, v int) bool { return c.Multiplicity(u, v) > 0 }

// Rows exposes the distinct view's raw arrays — offsets, ascending
// neighbors, parallel multiplicities — for CSR-shaped consumers (the
// Brandes/BFS machinery). Read-only.
func (c *CSR) Rows() (off, nbr, mult []int32) { return c.off, c.nbr, c.mult }

// SharedPartners returns sp(u,v) = sum_{w != u,v} A_uw * A_vw, the
// multiplicity-weighted shared-neighbor count of Sec. V-B's edgewise
// shared partner statistic, by a linear merge of the two sorted distinct
// rows. The endpoints exclude themselves structurally: every common
// neighbor w lies in both distinct rows, so w != u and w != v. Runs in
// O(deg(u) + deg(v)) without allocating.
func (c *CSR) SharedPartners(u, v int) int64 {
	un, um := c.Row(u)
	vn, vm := c.Row(v)
	var s int64
	i, j := 0, 0
	for i < len(un) && j < len(vn) {
		a, b := un[i], vn[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			s += int64(um[i]) * int64(vm[j])
			i++
			j++
		}
	}
	return s
}
