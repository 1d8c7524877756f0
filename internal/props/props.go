package props

import (
	"math/rand/v2"
	"runtime"

	"sgr/internal/graph"
)

// Options controls the cost/accuracy trade-off of the path-based properties.
type Options struct {
	// ExactThreshold is the largest component size for which every node
	// serves as a BFS/Brandes source. Larger components use Pivots sampled
	// sources with the standard unbiased scaling. Default 20000.
	ExactThreshold int
	// Pivots is the number of sampled sources in approximate mode
	// (default 1000).
	Pivots int
	// Workers bounds the goroutines of Compute's pool, which runs the
	// local properties alongside the Brandes batches, and of
	// Dissimilarity's distance profiles (default GOMAXPROCS). It changes
	// no bit of any result.
	Workers int
	// Rand picks pivots; nil selects evenly spaced sources, which keeps
	// results deterministic.
	Rand *rand.Rand
}

func (o Options) withDefaults() Options {
	if o.ExactThreshold <= 0 {
		o.ExactThreshold = 20000
	}
	if o.Pivots <= 0 {
		o.Pivots = 1000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result bundles the paper's 12 structural properties (Sec. V-B).
// Properties 1-7 are local, 8-12 global. Path-based quantities (8-11) refer
// to the largest connected component, as in the paper.
type Result struct {
	N                    int             // 1. number of nodes
	AvgDegree            float64         // 2. average degree
	DegreeDist           map[int]float64 // 3. P(k)
	NeighborConnectivity map[int]float64 // 4. kbar_nn(k)
	GlobalClustering     float64         // 5. cbar
	DegreeClustering     map[int]float64 // 6. cbar(k)
	ESP                  map[int]float64 // 7. P(s)
	AvgPathLen           float64         // 8. lbar
	PathLenDist          map[int]float64 // 9. P(l)
	Diameter             int             // 10. lmax
	DegreeBetweenness    map[int]float64 // 11. bbar(k)
	Lambda1              float64         // 12. largest eigenvalue
	PathsExact           bool            // whether 8-11 used all sources
}

// Compute evaluates all 12 properties of g on one pool of at most
// Options.Workers goroutines that lives for the whole call, the caller's
// among them. The caller first computes the properties that need no
// shortest paths (2-7 and 12), serially, while the other workers start on
// the batches of the path properties' Brandes pass; then it joins them
// (see pathRun). The results are bit-identical at any worker count. The path
// properties come from the bit-parallel Brandes kernel, which runs up to
// 64 sources per call with the float additions of one serial pass: its
// path counts are exact integers (a lane whose counts reach 2^53 re-runs
// alone, in serial order), its dependency sums keep the serial terms and
// arc order, and the batches fold into the betweenness in source order.
func Compute(g *graph.Graph, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{N: g.N()}
	local := func() { res.setLocal(g) }

	// Shortest-path properties over the LCC, projected straight out of the
	// shared snapshot. lccCSR builds that snapshot, which is not safe to
	// build concurrently, before the local properties read it on the pool.
	lcc, lccDeg := lccCSR(g)
	if lcc.n <= 1 {
		local()
		res.PathLenDist = map[int]float64{}
		res.DegreeBetweenness = map[int]float64{}
		res.PathsExact = true
		return res
	}
	sources := pickSources(lcc.n, opts)
	scale := 1.0
	if len(sources) < lcc.n {
		scale = float64(lcc.n) / float64(len(sources))
	}
	st := newPathRun(lcc, sources, scale, opts.Workers, 0).run(local)
	res.AvgPathLen = st.AvgLen
	res.PathLenDist = st.Dist
	res.Diameter = st.Diameter
	res.PathsExact = st.Exact

	// Degree-dependent betweenness over the LCC.
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < lcc.n; u++ {
		k := int(lccDeg[u])
		cnt[k]++
		sum[k] += st.Betweenness[u]
	}
	res.DegreeBetweenness = make(map[int]float64, len(cnt))
	for k, n := range cnt {
		res.DegreeBetweenness[k] = sum[k] / float64(n)
	}
	return res
}

// setLocal computes the properties that need no shortest paths: 2-7 and
// 12 (lambda1).
func (res *Result) setLocal(g *graph.Graph) {
	// One triangle pass feeds both clustering properties.
	local := LocalClustering(g)
	res.AvgDegree = g.AvgDegree()
	res.DegreeDist = DegreeDist(g)
	res.NeighborConnectivity = NeighborConnectivity(g)
	res.GlobalClustering = globalClusteringOf(g, local)
	res.DegreeClustering = degreeClusteringOf(g, local)
	res.ESP = EdgewiseSharedPartners(g)
	res.Lambda1 = Lambda1(g)
}

// pickSources chooses BFS/Brandes sources: every node when the component is
// small enough, otherwise Pivots nodes (random without replacement when a
// Rand is supplied, evenly spaced otherwise).
func pickSources(n int, opts Options) []int32 {
	if n <= opts.ExactThreshold {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	k := opts.Pivots
	if k > n {
		k = n
	}
	out := make([]int32, 0, k)
	if opts.Rand != nil {
		perm := opts.Rand.Perm(n)
		for _, v := range perm[:k] {
			out = append(out, int32(v))
		}
		return out
	}
	step := float64(n) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, int32(float64(i)*step))
	}
	return out
}
