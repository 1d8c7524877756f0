package props

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

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

// pathCounts is one worker's path-length statistics over the sources it
// ran. They are integers (a count per length, a sum and a max), so the
// per-worker partials merge in any order to the same values.
type pathCounts struct {
	lenCounts []int64
	sumLen    int64
	maxLen    int
}

// maxLanes is the widest batch: one bit of a uint64 lane mask per source.
const maxLanes = 64

// rowBudget caps the bytes of one dependency slot per worker.
const rowBudget = 16 << 20

// sigmaExact bounds the path counts a batch computes exactly. Every sigma
// is a sum of products of integers; while each stays below 2^53 every
// partial sum is an exactly representable integer, so its bits do not
// depend on the order of the additions.
const sigmaExact = 1 << 53

// laneEntry is one node of one BFS level of a batch, with the mask of the
// lanes whose source reaches it at that level.
type laneEntry struct {
	v    int32
	mask uint64
}

// laneWorker is one worker's batch state, reused across batches. seen and
// next are per-node lane masks (next is all zero between levels and between
// batches); sigma is node-major, one float per lane of the current batch;
// entries holds the BFS levels back to back, level d starting at
// entries[levels[d]]. The trailing pad keeps the counts off the cache line
// of the next worker's struct when the structs are allocated back to back.
type laneWorker struct {
	seen    []uint64
	next    []uint64
	sigma   []float64
	entries []laneEntry
	levels  []int
	counts  pathCounts
	_       [64]byte
}

// newLaneWorker allocates the state for batches of up to lanes sources on
// an n-node component; sigma is as large as one dependency slot.
func newLaneWorker(n, lanes int) *laneWorker {
	return &laneWorker{
		seen:    make([]uint64, n),
		next:    make([]uint64, n),
		sigma:   make([]float64, lanes*n),
		entries: make([]laneEntry, 0, 2*n),
		counts:  pathCounts{lenCounts: make([]int64, 64)},
	}
}

// laneLayout picks the lanes per batch of computePaths. Each running
// batch writes a node-major slot of lanes*n dependencies, so lanes is the
// widest batch (up to maxLanes) for which one slot per worker fits
// rowBudget — but at least one lane (once n*workers passes 2^21 the
// one-lane slots exceed the budget), and no wider than an even share of
// the sources, so every worker gets a batch. The fold's one spare slot
// (see pathRun) comes on top.
func laneLayout(n, nsources, workers int) int {
	lanes := rowBudget / (8 * n * workers)
	lanes = min(lanes, maxLanes, (nsources+workers-1)/workers)
	return max(lanes, 1)
}

// computePaths runs Brandes' algorithm (which yields distances as a side
// effect) from each source, in parallel, and returns the same bits at any
// worker count and lane width. c must be connected (Compute passes the
// LCC), so every source reaches, and writes the dependency of, every node.
// sources must be non-empty and distinct. scale multiplies the betweenness
// contribution of each source (used by pivot approximation). lanes is the
// number of sources one kernel call runs (1..maxLanes); 0 lets laneLayout
// pick it. It is newPathRun(...).run(nil); Compute passes its local
// properties to run as the first job.
func computePaths(c *csr, sources []int32, scale float64, workers, lanes int) *PathStats {
	return newPathRun(c, sources, scale, workers, lanes).run(nil)
}

// pathRun is one all-sources Brandes pass on a pool of workers that lives
// for the whole pass. The sources run in batches of lanes consecutive
// sources; the workers claim the batches in order from one cursor, and
// each batch writes its dependencies into a node-major slot. The caller's
// goroutine, one of the workers, may first run a job that is not a batch
// (Compute's local properties) while the others start on the batches.
//
// Betweenness is the sum over sources, in source order, of
// scale*delta_s[v] for v != s — the float additions of one serial pass.
// A finished slot goes to the fold, which adds the batches into bc
// strictly in batch order and each batch's lanes in lane order, so source
// order; whichever worker finishes the next batch in order does the
// folding, of it and of every later batch that is already done. Slots
// come from a free list of at most workers+1, allocated on first need: a
// worker takes a slot before it claims a batch, so every claimed, unfolded
// batch holds one and the next batch in order is always running or done.
// One worker never needs a second slot. The integer path-length
// statistics stay per worker.
type pathRun struct {
	c       *csr
	sources []int32
	scale   float64
	workers int
	lanes   int
	batches int
	bc      []float64
	lws     []*laneWorker // lws[w] is nil until worker w runs a batch
	cursor  atomic.Int64  // next batch to claim

	mu     sync.Mutex
	freed  sync.Cond   // signalled when a slot returns to free
	free   [][]float64 // idle slots
	slots  int         // slots allocated so far, at most len(done)
	done   [][]float64 // slots of finished, unfolded batches, by batch mod len(done)
	folded int         // batches added into bc so far
}

// newPathRun sizes the pass; workers <= 0 selects GOMAXPROCS.
func newPathRun(c *csr, sources []int32, scale float64, workers, lanes int) *pathRun {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if lanes <= 0 {
		lanes = laneLayout(c.n, len(sources), workers)
	}
	lanes = min(lanes, maxLanes, len(sources))
	r := &pathRun{
		c:       c,
		sources: sources,
		scale:   scale,
		workers: workers,
		lanes:   lanes,
		batches: (len(sources) + lanes - 1) / lanes,
		bc:      make([]float64, c.n),
	}
	r.freed.L = &r.mu
	return r
}

// run runs every batch on at most r.workers goroutines, the caller's
// among them, and returns the statistics once all are done. The caller
// runs first (if not nil) before it joins in, while the other workers
// start on the batches.
func (r *pathRun) run(first func()) *PathStats {
	workers := min(r.workers, r.batches)
	r.lws = make([]*laneWorker, workers)
	r.done = make([][]float64, workers+1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	if first != nil {
		first()
	}
	r.work(0)
	wg.Wait()
	return mergeCounts(r.lws, r.bc, len(r.sources))
}

// work is worker w's loop: take a slot, claim a batch, run it, until the
// batches run out.
func (r *pathRun) work(w int) {
	for {
		slot := r.acquire()
		j := int(r.cursor.Add(1)) - 1
		if j >= r.batches {
			r.release(slot)
			return
		}
		if r.lws[w] == nil {
			r.lws[w] = newLaneWorker(r.c.n, r.lanes)
		}
		r.lws[w].run(r.c, r.batch(j), slot, r.lanes)
		r.fold(j, slot)
	}
}

// batch returns the sources of batch j.
func (r *pathRun) batch(j int) []int32 {
	return r.sources[j*r.lanes : min((j+1)*r.lanes, len(r.sources))]
}

// acquire takes an idle slot, allocates one while fewer than len(r.done)
// exist, or waits for the fold to release one.
func (r *pathRun) acquire() []float64 {
	r.mu.Lock()
	for len(r.free) == 0 && r.slots == len(r.done) {
		r.freed.Wait()
	}
	if k := len(r.free) - 1; k >= 0 {
		slot := r.free[k]
		r.free = r.free[:k]
		r.mu.Unlock()
		return slot
	}
	r.slots++
	r.mu.Unlock()
	return make([]float64, r.lanes*r.c.n)
}

// release returns a slot to the free list.
func (r *pathRun) release(slot []float64) {
	r.mu.Lock()
	r.free = append(r.free, slot)
	r.mu.Unlock()
	r.freed.Signal()
}

// fold hands the finished slot of batch j to the fold. Claimed, unfolded
// batches are consecutive from r.folded and each holds a slot, so at most
// len(r.done) of them exist and batch mod len(r.done) tells them apart.
// done[r.folded mod len(r.done)] is set only while the next batch in
// order is done and nobody is adding it, so exactly one worker takes it.
func (r *pathRun) fold(j int, slot []float64) {
	ring := len(r.done)
	r.mu.Lock()
	r.done[j%ring] = slot
	for s := r.done[r.folded%ring]; s != nil; s = r.done[r.folded%ring] {
		k := r.folded
		r.done[k%ring] = nil
		r.mu.Unlock()
		r.add(k, s)
		r.mu.Lock()
		r.folded = k + 1
		r.free = append(r.free, s)
		r.freed.Signal()
	}
	r.mu.Unlock()
}

// add adds batch j's dependencies into bc: every v adds the batch's lanes
// in lane order, skipping the lane whose source is v.
func (r *pathRun) add(j int, slot []float64) {
	srcs := r.batch(j)
	for v := range r.bc {
		row := slot[v*r.lanes:]
		acc := r.bc[v]
		for l, s := range srcs {
			if int(s) != v {
				acc += r.scale * row[l]
			}
		}
		r.bc[v] = acc
	}
}

// mergeCounts folds the workers' path-length counts into the statistics of
// the component explored from nsources sources, whose betweenness is bc.
// A nil worker ran no batch.
func mergeCounts(lws []*laneWorker, bc []float64, nsources int) *PathStats {
	n := len(bc)
	st := &PathStats{Dist: make(map[int]float64), Betweenness: bc}
	var totalPairs, sumLen int64
	lenCounts := make([]int64, 0)
	for _, lw := range lws {
		if lw == nil {
			continue
		}
		p := &lw.counts
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

// run computes the dependencies of the batch srcs into its slot delta
// (delta_{srcs[l]}[v] at delta[v*stride+l]) and adds the batch's path
// length counts to the worker's. A lane whose sigma reached sigmaExact is
// run again on its own, whose additions are then exactly those of one
// serial Brandes pass.
func (lw *laneWorker) run(c *csr, srcs []int32, delta []float64, stride int) {
	big := lw.batch(c, srcs, delta, stride, &lw.counts)
	if len(srcs) == 1 {
		return // a one-lane batch already adds in serial order
	}
	for ; big != 0; big &= big - 1 {
		l := bits.TrailingZeros64(big)
		lw.batch(c, srcs[l:l+1], delta[l:], stride, nil)
	}
}

// batch runs Brandes' algorithm from up to maxLanes distinct sources at
// once, source srcs[l] in lane l — the multi-source BFS of Then et al.
// ("The More the Merrier", PVLDB 2014) carried through the backward pass.
// It writes delta_{srcs[l]}[v] to delta[v*stride+l], adds the path-length
// counts of every lane to p unless p is nil, and returns the mask of the
// lanes in which some sigma reached sigmaExact.
//
// Each BFS level is a list of (node, lane mask) entries. One scan of the
// rows of level d collects next[w], the lanes that reach w first at level
// d+1, and adds sigma[u]*m to sigma[w] in each lane of mask(u) &^ seen[w]:
// seen only changes after the scan, so those are exactly the lanes of
// mask(u) & next[w] once next is complete, and each sigma[w] receives its
// terms in the order a second scan of the same rows would add them. Sigma
// only grows, so a lane is flagged as soon as one sum reaches sigmaExact.
// The backward pass walks the levels in descending order and sums
// sigma[u]*m/sigma[w]*(1+delta[w]) over u's row in ascending arc order, in
// each lane where w lies one level deeper — the terms, their order and the
// float expression of one serial Brandes
// pass, so every delta has its bits whenever the sigmas are exact. In a
// one-lane batch the entries of a level are in BFS queue order, so sigma
// has the serial pass's bits too, exact or not.
func (lw *laneWorker) batch(c *csr, srcs []int32, delta []float64, stride int, p *pathCounts) uint64 {
	width := len(srcs)
	seen, next := lw.seen, lw.next
	sigma := lw.sigma[:width*c.n]
	clear(seen)
	clear(sigma)
	ents := lw.entries[:0]
	levels := append(lw.levels[:0], 0)
	for l, s := range srcs {
		seen[s] = 1 << l
		sigma[int(s)*width+l] = 1
		ents = append(ents, laneEntry{v: s, mask: 1 << l})
	}
	var big uint64
	for d := 0; ; d++ {
		lo, hi := levels[d], len(ents)
		for _, e := range ents[lo:hi] {
			u := int(e.v)
			su := sigma[u*width : u*width+width]
			rlo, rhi := c.offset[u], c.offset[u+1]
			mult := c.mult[rlo:rhi]
			for i, w := range c.nbr[rlo:rhi] {
				hit := e.mask &^ seen[w]
				if hit == 0 {
					continue
				}
				if next[w] == 0 {
					ents = append(ents, laneEntry{v: w})
				}
				next[w] |= hit
				m := float64(mult[i])
				sw := sigma[int(w)*width : int(w)*width+width]
				for ; hit != 0; hit &= hit - 1 {
					l := bits.TrailingZeros64(hit)
					if sw[l] += su[l] * m; sw[l] >= sigmaExact {
						big |= 1 << l
					}
				}
			}
		}
		if len(ents) == hi {
			break
		}
		levels = append(levels, hi)
		pairs := 0
		for i := hi; i < len(ents); i++ {
			w := ents[i].v
			ents[i].mask = next[w]
			seen[w] |= next[w]
			next[w] = 0
			pairs += bits.OnesCount64(ents[i].mask)
		}
		if p != nil {
			// Ordered pairs (s, t) at distance d+1, one per lane of each
			// entry of the level.
			l := d + 1
			for len(p.lenCounts) <= l {
				p.lenCounts = append(p.lenCounts, 0)
			}
			p.lenCounts[l] += int64(pairs)
			p.sumLen += int64(l) * int64(pairs)
			p.maxLen = max(p.maxLen, l)
		}
	}
	levels = append(levels, len(ents))
	// Dependency accumulation, deepest level first. lvl (the zeroed next
	// array) holds the lane masks of level d+1 while level d runs, and
	// every delta entry is written before a shallower level reads it, so
	// the slot needs no reset.
	lvl, end := next, len(ents)
	for d := len(levels) - 2; d >= 0; d-- {
		lo, hi := levels[d], levels[d+1]
		for _, e := range ents[lo:hi] {
			u := int(e.v)
			su := sigma[u*width : u*width+width]
			du := delta[u*stride : u*stride+width]
			for mk := e.mask; mk != 0; mk &= mk - 1 {
				du[bits.TrailingZeros64(mk)] = 0
			}
			rlo, rhi := c.offset[u], c.offset[u+1]
			mult := c.mult[rlo:rhi]
			for i, w := range c.nbr[rlo:rhi] {
				hit := e.mask & lvl[w]
				if hit == 0 {
					continue
				}
				m := float64(mult[i])
				sw := sigma[int(w)*width : int(w)*width+width]
				dw := delta[int(w)*stride : int(w)*stride+width]
				for ; hit != 0; hit &= hit - 1 {
					l := bits.TrailingZeros64(hit)
					du[l] += su[l] * m / sw[l] * (1 + dw[l])
				}
			}
		}
		for _, e := range ents[hi:end] {
			lvl[e.v] = 0
		}
		for _, e := range ents[lo:hi] {
			lvl[e.v] = e.mask
		}
		end = hi
	}
	for _, e := range ents[:end] {
		lvl[e.v] = 0
	}
	lw.entries = ents
	lw.levels = levels
	return big
}
