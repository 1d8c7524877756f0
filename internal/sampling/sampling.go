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

// GraphAccess adapts a concrete graph to the Access interface while counting
// distinct queried nodes, so experiments can report query budgets.
type GraphAccess struct {
	G       *graph.Graph
	queried map[int]struct{}
}

// NewGraphAccess wraps g.
func NewGraphAccess(g *graph.Graph) *GraphAccess {
	return &GraphAccess{G: g, queried: make(map[int]struct{})}
}

// NeighborsOf implements Access and records the query.
func (a *GraphAccess) NeighborsOf(u int) []int {
	a.queried[u] = struct{}{}
	return a.G.Neighbors(u)
}

// NumNodes implements Access.
func (a *GraphAccess) NumNodes() int { return a.G.N() }

// QueriedCount returns the number of distinct nodes queried so far.
func (a *GraphAccess) QueriedCount() int { return len(a.queried) }

// Crawl is the outcome of any crawling method: the order in which distinct
// nodes were first queried, their neighbor lists (the sampling list L), and,
// for walk-based methods, the full node sequence x_1..x_r including repeats.
type Crawl struct {
	// Queried lists distinct queried nodes in first-query order.
	Queried []int
	// Neighbors maps each queried node to its full neighbor list.
	Neighbors map[int][]int
	// Walk is the random-walk node sequence (nil for non-walk crawlers).
	Walk []int
}

// NumQueried returns the number of distinct queried nodes.
func (c *Crawl) NumQueried() int { return len(c.Queried) }

// DegreeOf returns the true degree of a queried node (its neighbor-list
// length) and whether the node was queried.
func (c *Crawl) DegreeOf(u int) (int, bool) {
	nb, ok := c.Neighbors[u]
	return len(nb), ok
}

type recorder struct {
	access Access
	crawl  *Crawl
}

func newRecorder(access Access) *recorder {
	return &recorder{access: access, crawl: &Crawl{Neighbors: make(map[int][]int)}}
}

// query returns u's neighbors, recording the first query of each node.
func (rec *recorder) query(u int) []int {
	if nb, ok := rec.crawl.Neighbors[u]; ok {
		return nb
	}
	nb := rec.access.NeighborsOf(u)
	rec.crawl.Queried = append(rec.crawl.Queried, u)
	rec.crawl.Neighbors[u] = nb
	return nb
}

func (rec *recorder) numQueried() int { return len(rec.crawl.Queried) }

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
		rec.crawl.Walk = append(rec.crawl.Walk, cur)
		if rec.numQueried() >= budget {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: random walk stuck at isolated node %d", cur)
		}
		cur = nb[r.IntN(len(nb))]
	}
	return rec.crawl, nil
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
		rec.crawl.Walk = append(rec.crawl.Walk, cur)
		if i == steps-1 {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: random walk stuck at isolated node %d", cur)
		}
		cur = nb[r.IntN(len(nb))]
	}
	return rec.crawl, nil
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
	return rec.crawl, nil
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
	return rec.crawl, nil
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
			q := rec.crawl.Queried
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
	return rec.crawl, nil
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
