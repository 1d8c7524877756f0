package props

import (
	"runtime"
	"sync"

	"sgr/internal/graph"
)

// csr is the path view of a graph: distinct neighbors in ascending order
// with edge multiplicities, self-loops dropped (they never lie on shortest
// paths). Sorted rows make float accumulation order, and hence results,
// bit-for-bit reproducible.
type csr struct {
	n      int
	offset []int32
	nbr    []int32
	mult   []int32
}

// newCSR projects the graph's shared CSR snapshot onto the path view.
// Zero-copy: the arrays alias graph.CSR's distinct view, which already has
// exactly the required shape.
func newCSR(g *graph.Graph) *csr {
	c := g.CSR()
	off, nbr, mult := c.Rows()
	return &csr{n: c.N(), offset: off, nbr: nbr, mult: mult}
}

// lccCSR builds the path view of g's largest connected component directly
// from the shared CSR snapshot, without materializing the component as a
// *graph.Graph (the InducedSubgraph rebuild used to dominate Compute's
// allocations). Nodes are relabeled to 0..k-1 in the order of
// ConnectedComponents' member list — the same order LargestComponent uses —
// and rows come out sorted by new label without any per-row sort, because
// source nodes are scanned in ascending new label. The second return value
// holds each LCC node's full degree in g (self-loops and multi-edges
// included), for the degree-keyed reductions. An empty g yields n == 0.
func lccCSR(g *graph.Graph) (*csr, []int32) {
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return &csr{offset: []int32{0}}, nil
	}
	members := comps[0]
	c := g.CSR()
	k := len(members)
	inv := make([]int32, g.N())
	for i, u := range members {
		inv[u] = int32(i)
	}
	sub := &csr{n: k, offset: make([]int32, k+1)}
	deg := make([]int32, k)
	total := int32(0)
	for i, u := range members {
		sub.offset[i] = total
		// Every distinct neighbor of a component member is in the
		// component, so row sizes are known without a counting pass.
		total += int32(c.DistinctDegree(u))
		deg[i] = int32(c.Degree(u))
	}
	sub.offset[k] = total
	sub.nbr = make([]int32, total)
	sub.mult = make([]int32, total)
	fill := append([]int32(nil), sub.offset[:k]...)
	for vi, orig := range members {
		nbr, mult := c.Row(orig)
		for idx, w := range nbr {
			u := inv[w]
			sub.nbr[fill[u]] = int32(vi)
			sub.mult[fill[u]] = mult[idx]
			fill[u]++
		}
	}
	return sub, deg
}

// PathStats aggregates the shortest-path properties of Sec. V-B
// (properties 8-11) over the component reachable from the used sources.
type PathStats struct {
	// AvgLen is lbar, the mean shortest-path length over node pairs.
	AvgLen float64
	// Dist is P(l), the distribution of shortest-path lengths (l >= 1).
	Dist map[int]float64
	// Diameter is the longest observed shortest-path length.
	Diameter int
	// Betweenness holds per-node betweenness centrality under the paper's
	// ordered-pair definition (both (j,k) and (k,j) count).
	Betweenness []float64
	// Sources is the number of BFS/Brandes sources actually used.
	Sources int
	// Exact reports whether every node served as a source.
	Exact bool
}

// pathPartial is one worker's accumulator.
type pathPartial struct {
	lenCounts []int64
	sumLen    int64
	maxLen    int
	bc        []float64
}

// pathWorkspace holds per-worker Brandes state, reused across sources.
// queue is the BFS order, which is also the order the backward pass
// reverses. succ is the successor buffer: the forward pass appends the CSR
// index of every shortest-path DAG arc (u -> v with dist[v] == dist[u]+1),
// and the arcs of queue[i] occupy succ[succStart[i]:succStart[i+1]] in
// ascending arc order. Each arc is recorded at most once per source, so
// succ is sized once to len(c.nbr).
type pathWorkspace struct {
	dist      []int32
	sigma     []float64
	delta     []float64
	queue     []int32
	succ      []int32
	succStart []int32
}

// computePaths runs Brandes' algorithm (which yields distances as a side
// effect) from each source, in parallel, and merges the partials
// deterministically. sources must be non-empty. scale multiplies the
// betweenness contribution of each source (used by pivot approximation).
func computePaths(c *csr, sources []int32, scale float64, workers int) *PathStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	partials := make([]*pathPartial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &pathPartial{
				lenCounts: make([]int64, 64),
				bc:        make([]float64, c.n),
			}
			ws := &pathWorkspace{
				dist:      make([]int32, c.n),
				sigma:     make([]float64, c.n),
				delta:     make([]float64, c.n),
				queue:     make([]int32, 0, c.n),
				succ:      make([]int32, len(c.nbr)),
				succStart: make([]int32, c.n+1),
			}
			for i := w; i < len(sources); i += workers {
				brandesFrom(c, sources[i], p, ws, scale)
			}
			partials[w] = p
		}(w)
	}
	wg.Wait()
	return mergePaths(partials, c.n, len(sources))
}

// mergePaths folds the per-worker partials, in worker order, into the
// statistics of an n-node component explored from nsources sources.
func mergePaths(partials []*pathPartial, n, nsources int) *PathStats {
	st := &PathStats{Dist: make(map[int]float64), Betweenness: make([]float64, n)}
	var totalPairs, sumLen int64
	lenCounts := make([]int64, 0)
	for _, p := range partials {
		if p.maxLen > st.Diameter {
			st.Diameter = p.maxLen
		}
		sumLen += p.sumLen
		for l, cnt := range p.lenCounts {
			for len(lenCounts) <= l {
				lenCounts = append(lenCounts, 0)
			}
			lenCounts[l] += cnt
			totalPairs += cnt
		}
		for v := range p.bc {
			st.Betweenness[v] += p.bc[v]
		}
	}
	if totalPairs > 0 {
		st.AvgLen = float64(sumLen) / float64(totalPairs)
		for l, cnt := range lenCounts {
			if cnt > 0 {
				st.Dist[l] = float64(cnt) / float64(totalPairs)
			}
		}
	}
	st.Sources = nsources
	st.Exact = nsources == n
	return st
}

// brandesFrom runs one Brandes iteration from source s, accumulating path
// length counts (ordered pairs s -> t) and dependency scores into p.
//
// The forward BFS counts shortest paths and records every DAG arc in the
// workspace's successor buffer; the backward pass walks only those arcs, so
// it never re-scans a row or re-tests a distance. The float operations and
// their order are those of the arc-rescanning kernel it replaced — sigma[v]
// += sigma[u]*m in arc order, then delta[u] += sigma[u]*m/sigma[v]*(1+delta[v])
// over u's successors in ascending arc order — so results are bit-identical
// to it (TestBrandesMatchesFrozen).
func brandesFrom(c *csr, s int32, p *pathPartial, ws *pathWorkspace, scale float64) {
	dist := ws.dist
	sigma := ws.sigma
	delta := ws.delta
	succ := ws.succ
	succStart := ws.succStart
	for i := range dist {
		dist[i] = -1
		sigma[i] = 0
	}
	queue := ws.queue[:0]

	dist[s] = 0
	sigma[s] = 1
	queue = append(queue, s)
	ns := int32(0)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		succStart[qi] = ns
		dv := dist[u] + 1
		su := sigma[u]
		lo, hi := c.offset[u], c.offset[u+1]
		mult := c.mult[lo:hi]
		for i, v := range c.nbr[lo:hi] {
			if dist[v] < 0 {
				dist[v] = dv
				queue = append(queue, v)
			}
			if dist[v] == dv {
				sigma[v] += su * float64(mult[i])
				succ[ns] = lo + int32(i)
				ns++
			}
		}
	}
	succStart[len(queue)] = ns
	// Path-length statistics over ordered pairs (s, t), t != s; queue[0]
	// is s.
	for _, t := range queue[1:] {
		l := int(dist[t])
		for len(p.lenCounts) <= l {
			p.lenCounts = append(p.lenCounts, 0)
		}
		p.lenCounts[l]++
		p.sumLen += int64(l)
		if l > p.maxLen {
			p.maxLen = l
		}
	}
	// Dependency accumulation in reverse BFS order. delta[u] is written
	// before any predecessor reads it, so it needs no reset.
	for qi := len(queue) - 1; qi >= 0; qi-- {
		u := queue[qi]
		su := sigma[u]
		du := 0.0
		for _, e := range succ[succStart[qi]:succStart[qi+1]] {
			v := c.nbr[e]
			du += su * float64(c.mult[e]) / sigma[v] * (1 + delta[v])
		}
		delta[u] = du
		if u != s {
			p.bc[u] += scale * du
		}
	}
	ws.queue = queue
}
