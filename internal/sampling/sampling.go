// Package sampling implements the paper's graph-access model (Sec. III-A)
// and the crawling methods compared in the evaluation: simple random walk
// (Sec. III-B), breadth-first search, snowball sampling, and forest fire
// sampling (Sec. V-D), plus the Metropolis–Hastings and non-backtracking
// random walks discussed in related work.
//
// Crawlers interact with the hidden graph only through the Access interface:
// querying a node returns its neighbor list, and nothing else about the graph
// is observable. Every crawler records the set of queried nodes together
// with their neighbor lists — the "sampling list" L of the paper — from which
// the induced subgraph G' is constructed.
package sampling

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"sgr/internal/graph"
)

// Access is the restricted interface to the hidden social graph: one may
// query a node and receive its neighbor list, per the paper's access model.
type Access interface {
	// NeighborsOf returns the neighbor list of u (one entry per incident
	// edge endpoint). The returned slice must not be modified.
	NeighborsOf(u int) []int
	// NumNodes reports the total node count; crawlers use it only to convert
	// a target fraction of queried nodes into an absolute budget, mirroring
	// the paper's experimental protocol (it is NOT available to estimators).
	NumNodes() int
}

// Prefetcher is an optional Access extension implemented by batching
// transports (oracle.Client): Prefetch warms the neighbor cache for nodes
// the caller is certain to query, amortizing per-query round-trip overhead.
// It is purely advisory — budget accounting and crawl results are identical
// with and without it — and implementations must tolerate ids that are
// already cached or in flight.
type Prefetcher interface {
	Prefetch(ids []int)
}

// prefetcher drives frontier prefetching for the BFS-family crawlers. The
// crawlers hand it the frontier prefix that is certain to be queried — the
// first `remaining-budget` queue entries, which FIFO consumption reaches
// before the budget can run out — so a batching Access never fetches a node
// the crawl would not have paid for anyway.
type prefetcher struct {
	p  Prefetcher
	pf int // length of the queue prefix already prefetched
}

func newPrefetcher(access Access) prefetcher {
	p, _ := access.(Prefetcher)
	return prefetcher{p: p}
}

// extend prefetches the not-yet-prefetched part of the certain prefix.
func (ps *prefetcher) extend(queue []int, remaining int) {
	if ps.p == nil {
		return
	}
	want := len(queue)
	if remaining < want {
		want = remaining
	}
	if ps.pf < want {
		ps.p.Prefetch(queue[ps.pf:want])
		ps.pf = want
	}
}

// consume notes that the queue head was dequeued.
func (ps *prefetcher) consume() {
	if ps.pf > 0 {
		ps.pf--
	}
}

// GraphAccess adapts a concrete graph to the Access interface.
type GraphAccess struct {
	G *graph.Graph
}

// NewGraphAccess wraps g.
func NewGraphAccess(g *graph.Graph) *GraphAccess { return &GraphAccess{G: g} }

// NeighborsOf implements Access.
func (a *GraphAccess) NeighborsOf(u int) []int { return a.G.Neighbors(u) }

// NumNodes implements Access.
func (a *GraphAccess) NumNodes() int { return a.G.N() }

// Crawl is the outcome of any crawling method: the sampling list L of the
// paper (the distinct queried nodes in first-query order, each with its
// neighbor list) and, for walk-based methods, the full node sequence
// x_1..x_r including repeats. It is stored once, as the parallel slices it
// is read and written as, and is immutable: NewCrawl is its only
// constructor, so every crawl, whether crawled, read from JSON or replayed
// from a journal, has passed the same validator.
//
// The estimators (estimate.NewWalk) and the sampled subgraph
// (BuildSubgraph) read the crawl through its dense labeling (Nodes,
// DenseRows, DenseWalk), which the crawl computes at most once, on first
// use, and which is safe to request from concurrent goroutines.
type Crawl struct {
	queried []int   // distinct queried nodes, in first-query order
	lists   [][]int // lists[i] is queried[i]'s neighbor list
	walk    []int   // walk sequence, nil for non-walk crawlers

	labelOnce sync.Once
	lab       labeling
}

// labeling is a crawl's dense relabeling. Dense IDs [0, NumQueried) are
// the queried nodes in first-query order; dense IDs [NumQueried, len(nodes))
// are the visible nodes, named in some neighbor list but never queried, in
// ascending ID. It takes O(crawl size) memory whatever the node IDs, so a
// crawl from the network cannot inflate it.
type labeling struct {
	nodes []int   // dense ID -> crawl node ID
	walk  []int32 // dense ID of each walk step
	// adj[off[i]:off[i+1]] is queried node i's neighbor list as dense IDs,
	// in list order, repeats included.
	off, adj []int32
}

// NumQueried returns the number of distinct queried nodes.
func (c *Crawl) NumQueried() int { return len(c.queried) }

// Queried returns the distinct queried nodes in first-query order. The
// returned slice must not be modified.
func (c *Crawl) Queried() []int { return c.queried }

// Lists returns the neighbor lists, parallel to Queried. They must not be
// modified.
func (c *Crawl) Lists() [][]int { return c.lists }

// Walk returns the random-walk node sequence (nil for non-walk crawlers).
// It must not be modified.
func (c *Crawl) Walk() []int { return c.walk }

// Nodes returns the dense labeling's node table, dense ID -> node ID:
// Queried first, then the visible nodes in ascending ID. It must not be
// modified.
func (c *Crawl) Nodes() []int { return c.label().nodes }

// DenseRows returns the queried nodes' neighbor lists as dense IDs, in list
// order: adj[off[i]:off[i+1]] is Lists()[i]. They must not be modified.
func (c *Crawl) DenseRows() (off, adj []int32) {
	l := c.label()
	return l.off, l.adj
}

// DenseWalk returns the dense ID of each walk step. It must not be
// modified.
func (c *Crawl) DenseWalk() []int32 { return c.label().walk }

// label returns the crawl's labeling, computing it on first use. It is the
// one place that maps crawl node IDs to dense IDs.
func (c *Crawl) label() *labeling {
	c.labelOnce.Do(func() {
		nq := len(c.queried)
		total := 0
		for _, nb := range c.lists {
			total += len(nb)
		}
		// Sized for every node the lists could name, so it never grows.
		dense := make(map[int]int32, nq+total)
		for i, u := range c.queried {
			dense[u] = int32(i)
		}
		l := &c.lab
		l.walk = make([]int32, len(c.walk))
		for i, u := range c.walk {
			l.walk[i] = dense[u] // NewCrawl admits only queried walk nodes
		}
		// Visible nodes get provisional IDs -1, -2, ... in discovery order
		// until their ascending-ID order is known.
		l.off = make([]int32, nq+1)
		l.adj = make([]int32, 0, total)
		var visible []int
		for i, nb := range c.lists {
			for _, v := range nb {
				d, ok := dense[v]
				if !ok {
					visible = append(visible, v)
					d = -int32(len(visible))
					dense[v] = d
				}
				l.adj = append(l.adj, d)
			}
			l.off[i+1] = int32(len(l.adj))
		}
		slices.Sort(visible)
		final := make([]int32, len(visible)) // discovery index -> dense ID
		for k, v := range visible {
			final[-dense[v]-1] = int32(nq + k)
		}
		for j, d := range l.adj {
			if d < 0 {
				l.adj[j] = final[-d-1]
			}
		}
		l.nodes = append(append(make([]int, 0, nq+len(visible)), c.queried...), visible...)
	})
	return &c.lab
}

// recorder accumulates a crawl's sampling list while a crawler runs. Its
// index, node -> position in queried, dedupes queries; the finished crawl
// goes through NewCrawl like every other.
type recorder struct {
	access  Access
	index   map[int]int
	queried []int
	lists   [][]int
	walk    []int
}

func newRecorder(access Access) *recorder {
	return &recorder{access: access, index: make(map[int]int)}
}

// query returns u's neighbors, recording the first query of each node.
func (rec *recorder) query(u int) []int {
	if i, ok := rec.index[u]; ok {
		return rec.lists[i]
	}
	nb := rec.access.NeighborsOf(u)
	rec.index[u] = len(rec.queried)
	rec.queried = append(rec.queried, u)
	rec.lists = append(rec.lists, nb)
	return nb
}

func (rec *recorder) numQueried() int { return len(rec.queried) }

// crawl finishes the recording.
func (rec *recorder) crawl() (*Crawl, error) { return NewCrawl(rec.queried, rec.lists, rec.walk) }

// budgetFromFraction converts a fraction of nodes into an absolute count,
// rounded to nearest and clamped to at least 1. Rounding matters: float
// products like 0.1*230 evaluate to 22.999999999999996, and truncation
// would silently hand the crawler one query fewer than the protocol fixes.
func budgetFromFraction(access Access, fraction float64) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("sampling: fraction %v out of (0,1]", fraction)
	}
	b := int(math.Round(fraction * float64(access.NumNodes())))
	if b < 1 {
		b = 1
	}
	return b, nil
}

// RandomWalk performs a simple random walk from seed until the number of
// distinct queried nodes reaches fraction*N, returning the crawl whose Walk
// field holds the full sequence x_1, x_2, ... (Sec. III-B). Each step moves
// to a uniformly random neighbor of the current node.
func RandomWalk(access Access, seed int, fraction float64, r *rand.Rand) (*Crawl, error) {
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	cur := seed
	for {
		nb := rec.query(cur)
		rec.walk = append(rec.walk, cur)
		if rec.numQueried() >= budget {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: random walk stuck at isolated node %d", cur)
		}
		cur = nb[r.IntN(len(nb))]
	}
	return rec.crawl()
}

// SeededRandomWalk is the deterministic whole-crawl entry point shared by
// cmd/crawl and the restored job daemon's server-side crawls: it derives
// the walk RNG from seed exactly as `crawl -seed` does, draws the start
// node when seedNode < 0, and runs RandomWalk. Two callers handing the
// same Access contents, seedNode, fraction and seed get byte-identical
// crawls — the invariant that lets a daemon-crawled job be answered from
// the same content-addressed cache entry as a CLI-crawled one.
func SeededRandomWalk(access Access, seedNode int, fraction float64, seed uint64) (*Crawl, error) {
	r := rand.New(rand.NewPCG(seed, seed^0x27d4eb2f))
	n := access.NumNodes()
	start := seedNode
	if start < 0 {
		start = r.IntN(n)
	} else if start >= n {
		return nil, fmt.Errorf("sampling: seed node %d out of range [0,%d)", start, n)
	}
	return RandomWalk(access, start, fraction, r)
}

// RandomWalkSteps performs a simple random walk of exactly steps queries
// (with repetition in the sequence), regardless of the distinct-node count.
// Useful for estimator experiments that fix the walk length r.
func RandomWalkSteps(access Access, seed int, steps int, r *rand.Rand) (*Crawl, error) {
	if steps < 1 {
		return nil, fmt.Errorf("sampling: steps %d < 1", steps)
	}
	rec := newRecorder(access)
	cur := seed
	for i := 0; i < steps; i++ {
		nb := rec.query(cur)
		rec.walk = append(rec.walk, cur)
		if i == steps-1 {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: random walk stuck at isolated node %d", cur)
		}
		cur = nb[r.IntN(len(nb))]
	}
	return rec.crawl()
}

// BFS crawls breadth-first from seed, querying every discovered node until
// the distinct-query budget is exhausted.
func BFS(access Access, seed int, fraction float64) (*Crawl, error) {
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	visited := map[int]struct{}{seed: {}}
	queue := []int{seed}
	ps := newPrefetcher(access)
	for len(queue) > 0 && rec.numQueried() < budget {
		ps.extend(queue, budget-rec.numQueried())
		u := queue[0]
		queue = queue[1:]
		ps.consume()
		for _, v := range rec.query(u) {
			if _, ok := visited[v]; !ok {
				visited[v] = struct{}{}
				queue = append(queue, v)
			}
		}
	}
	return rec.crawl()
}

// Snowball crawls like BFS but explores at most k uniformly random distinct
// neighbors of each queried node (Goodman's snowball sampling; k = 50 in the
// paper's experiments).
func Snowball(access Access, seed, k int, fraction float64, r *rand.Rand) (*Crawl, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: snowball k=%d < 1", k)
	}
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	visited := map[int]struct{}{seed: {}}
	queue := []int{seed}
	ps := newPrefetcher(access)
	for len(queue) > 0 && rec.numQueried() < budget {
		ps.extend(queue, budget-rec.numQueried())
		u := queue[0]
		queue = queue[1:]
		ps.consume()
		nb := rec.query(u)
		fresh := distinctUnvisited(nb, visited)
		r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		if len(fresh) > k {
			fresh = fresh[:k]
		}
		for _, v := range fresh {
			visited[v] = struct{}{}
			queue = append(queue, v)
		}
	}
	return rec.crawl()
}

// ForestFire crawls with forest-fire sampling: from each burning node, a
// geometrically distributed number of unvisited neighbors (mean pf/(1-pf))
// catches fire. If the fire dies before the budget is reached, it revives
// from a uniformly random already-sampled node, as in Kurant et al.
func ForestFire(access Access, seed int, pf float64, fraction float64, r *rand.Rand) (*Crawl, error) {
	if pf <= 0 || pf >= 1 {
		return nil, fmt.Errorf("sampling: forest fire pf=%v out of (0,1)", pf)
	}
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	visited := map[int]struct{}{seed: {}}
	queue := []int{seed}
	ps := newPrefetcher(access)
	for rec.numQueried() < budget {
		if len(queue) == 0 {
			// Fire died: revive from a random sampled node.
			q := rec.queried
			queue = append(queue, q[r.IntN(len(q))])
		}
		// Revived nodes are already queried, so the budget-bounded prefix
		// under-approximates what will be queried — prefetch never pays
		// for a node the crawl would not.
		ps.extend(queue, budget-rec.numQueried())
		u := queue[0]
		queue = queue[1:]
		ps.consume()
		nb := rec.query(u)
		fresh := distinctUnvisited(nb, visited)
		r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		burn := geometric(pf, r)
		if burn > len(fresh) {
			burn = len(fresh)
		}
		for _, v := range fresh[:burn] {
			visited[v] = struct{}{}
			queue = append(queue, v)
		}
	}
	return rec.crawl()
}

// geometric samples the number of successes before the first failure with
// success probability pf, i.e. a geometric variate with mean pf/(1-pf).
func geometric(pf float64, r *rand.Rand) int {
	n := 0
	for r.Float64() < pf {
		n++
	}
	return n
}

// distinctUnvisited returns the distinct entries of nb not present in
// visited, preserving first-occurrence order.
func distinctUnvisited(nb []int, visited map[int]struct{}) []int {
	var out []int
	seen := make(map[int]struct{}, len(nb))
	for _, v := range nb {
		if _, ok := visited[v]; ok {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
