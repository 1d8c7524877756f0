package props

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sgr/internal/graph"
	"sgr/internal/parallel"
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

// pathCounts is one worker's path-length statistics over the sources it
// ran. They are integers (a count per length, a sum and a max), so the
// per-worker partials merge in any order to the same values.
type pathCounts struct {
	lenCounts []int64
	sumLen    int64
	maxLen    int
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
	queue     []int32
	succ      []int32
	succStart []int32
}

// pathWorker is one worker's workspace and statistics. The trailing pad
// keeps the counts, written once per reached node, off the cache line of
// the next worker's struct when the structs are allocated back to back.
type pathWorker struct {
	ws     pathWorkspace
	counts pathCounts
	_      [64]byte
}

// rowBudget caps the bytes of a block's dependency rows.
const rowBudget = 16 << 20

// blockRows is how many sources one block of computePaths runs. 32 rows
// per worker keep the atomic claiming balanced; rowBudget caps the row
// buffer on large components, but never below 2 rows per worker — the
// 2*workers*n floats that one bc and one delta array per worker took.
func blockRows(n, nsources, workers int) int {
	rows := 32 * workers
	if most := rowBudget / (8 * n); rows > most {
		rows = most
	}
	if rows < 2*workers {
		rows = 2 * workers
	}
	if rows > nsources {
		rows = nsources
	}
	return rows
}

// computePaths runs Brandes' algorithm (which yields distances as a side
// effect) from each source, in parallel, and returns the same bits at any
// worker count. c must be connected (Compute passes the LCC), so every
// source reaches, and writes the dependency row entry of, every node.
// sources must be non-empty. scale multiplies the betweenness contribution
// of each source (used by pivot approximation).
//
// Betweenness is the sum over sources, in source order, of scale*delta_s[v]
// for v != s — the float additions of one serial pass. The sources run in
// blocks: inside a block, workers claim sources with an atomic cursor and
// each source's backward pass writes its dependencies into the source's
// own row of the block buffer. Then every v adds the block's rows in source
// order, each worker owning a range of v. The integer path-length
// statistics stay per worker.
func computePaths(c *csr, sources []int32, scale float64, workers int) *PathStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	n := c.n
	rows := blockRows(n, len(sources), workers)
	buf := make([]float64, rows*n)
	pws := make([]*pathWorker, workers)
	for w := range pws {
		pws[w] = &pathWorker{
			ws: pathWorkspace{
				dist:      make([]int32, n),
				sigma:     make([]float64, n),
				queue:     make([]int32, 0, n),
				succ:      make([]int32, len(c.nbr)),
				succStart: make([]int32, n+1),
			},
			counts: pathCounts{lenCounts: make([]int64, 64)},
		}
	}
	bc := make([]float64, n)
	for base := 0; base < len(sources); base += rows {
		blk := sources[base:min(base+rows, len(sources))]
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, pw := range pws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(blk); j = int(next.Add(1)) - 1 {
					brandesFrom(c, blk[j], &pw.ws, &pw.counts, buf[j*n:(j+1)*n])
				}
			}()
		}
		wg.Wait()
		parallel.Blocks(workers, n, func(lo, hi int) {
			out := bc[lo:hi]
			for j, s := range blk {
				row := buf[j*n+lo : j*n+hi]
				for i, d := range row {
					if lo+i != int(s) {
						out[i] += scale * d
					}
				}
			}
		})
	}
	return mergeCounts(pws, bc, len(sources))
}

// mergeCounts folds the workers' path-length counts into the statistics of
// the component explored from nsources sources, whose betweenness is bc.
func mergeCounts(pws []*pathWorker, bc []float64, nsources int) *PathStats {
	n := len(bc)
	st := &PathStats{Dist: make(map[int]float64), Betweenness: bc}
	var totalPairs, sumLen int64
	lenCounts := make([]int64, 0)
	for _, pw := range pws {
		p := &pw.counts
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

// brandesFrom runs one Brandes iteration from source s: it adds the path
// length counts of the ordered pairs s -> t to p and writes the dependency
// delta_s[v] of every node s reaches into delta (the source's own entry
// is not betweenness).
//
// The forward BFS counts shortest paths and records every DAG arc in the
// workspace's successor buffer; the backward pass walks only those arcs, so
// it never re-scans a row or re-tests a distance. The float operations and
// their order are those of the arc-rescanning kernel it replaced — sigma[v]
// += sigma[u]*m in arc order, then delta[u] += sigma[u]*m/sigma[v]*(1+delta[v])
// over u's successors in ascending arc order — so results are bit-identical
// to it (TestBrandesMatchesFrozen).
func brandesFrom(c *csr, s int32, ws *pathWorkspace, p *pathCounts, delta []float64) {
	dist := ws.dist
	sigma := ws.sigma
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
	}
	ws.queue = queue
}
