package props

// Frozen arc-rescanning Brandes kernel and the differential tests pinning
// the bit-parallel lane kernel in paths.go to it, float bit for float bit.
// refCompute (csrdiff_test.go) runs the same frozen kernel, so the
// whole-pipeline differential test guards it too. The frozen driver keeps
// the per-worker accumulator and worker-order float merge that
// computePaths used before it merged in source order; they live here,
// unchanged, and agree with computePaths at one worker.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// pathPartial is one worker's accumulator.
type pathPartial struct {
	lenCounts []int64
	sumLen    int64
	maxLen    int
	bc        []float64
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

// refPathWorkspace is the frozen per-worker state: distances, path
// counts, dependencies and the BFS order, for one source at a time.
type refPathWorkspace struct {
	dist  []int32
	sigma []float64
	delta []float64
	order []int32
	queue []int32
}

// refBrandesFrom is the frozen kernel: the backward pass re-scans every
// arc of each node and re-tests dist[v] == dist[u]+1.
func refBrandesFrom(c *csr, s int32, p *pathPartial, ws *refPathWorkspace, scale float64) {
	dist := ws.dist
	sigma := ws.sigma
	delta := ws.delta
	for i := range dist {
		dist[i] = -1
		sigma[i] = 0
		delta[i] = 0
	}
	order := ws.order[:0]
	queue := ws.queue[:0]

	dist[s] = 0
	sigma[s] = 1
	queue = append(queue, s)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		order = append(order, u)
		du := dist[u]
		for e := c.offset[u]; e < c.offset[u+1]; e++ {
			v := c.nbr[e]
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
			if dist[v] == du+1 {
				sigma[v] += sigma[u] * float64(c.mult[e])
			}
		}
	}
	for _, t := range order {
		if t == s {
			continue
		}
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
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		du := dist[u]
		for e := c.offset[u]; e < c.offset[u+1]; e++ {
			v := c.nbr[e]
			if dist[v] == du+1 {
				delta[u] += sigma[u] * float64(c.mult[e]) / sigma[v] * (1 + delta[v])
			}
		}
		if u != s {
			p.bc[u] += scale * delta[u]
		}
	}
	ws.order = order
	ws.queue = queue
}

// refComputePaths is computePaths driving the frozen kernel: the same
// goroutine per worker, strided source split and merge.
func refComputePaths(c *csr, sources []int32, scale float64, workers int) *PathStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	partials := make([]*pathPartial, workers)
	var wg sync.WaitGroup
	for w := range partials {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &pathPartial{lenCounts: make([]int64, 64), bc: make([]float64, c.n)}
			ws := &refPathWorkspace{
				dist:  make([]int32, c.n),
				sigma: make([]float64, c.n),
				delta: make([]float64, c.n),
				order: make([]int32, 0, c.n),
				queue: make([]int32, 0, c.n),
			}
			for i := w; i < len(sources); i += workers {
				refBrandesFrom(c, sources[i], p, ws, scale)
			}
			partials[w] = p
		}(w)
	}
	wg.Wait()
	return mergePaths(partials, c.n, len(sources))
}

// TestBrandesMatchesFrozen pins computePaths to the frozen kernel run
// serially, bit for bit — AvgLen, every P(l) entry and every betweenness
// float — on the multigraph corpus and the golden anybeat stand-in, in
// exact and pivot mode (pivot mode exercises scale != 1), at every tested
// lane width and worker count: computePaths merges in source order and its
// sigmas are exact, so its bits depend on neither.
func TestBrandesMatchesFrozen(t *testing.T) {
	graphs := diffGraphs()
	graphs["anybeat"] = goldenGraph(t)
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, _ := lccCSR(graphs[name])
		if c.n <= 1 {
			continue
		}
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"exact", Options{ExactThreshold: c.n}},
			{"pivot", Options{ExactThreshold: 1, Pivots: c.n/3 + 1}},
		} {
			sources := pickSources(c.n, mode.opts.withDefaults())
			scale := 1.0
			if len(sources) < c.n {
				scale = float64(c.n) / float64(len(sources))
			}
			want := refComputePaths(c, sources, scale, 1)
			for _, lanes := range []int{1, 7, 64} {
				for _, workers := range []int{1, 2, 3, 5} {
					got := computePaths(c, sources, scale, workers, lanes)
					samePaths(t, fmt.Sprintf("%s %s lanes=%d workers=%d", name, mode.name, lanes, workers), got, want)
				}
			}
		}
	}
}

// TestBrandesFoldOrderMatchesFrozen pins pathRun's in-order fold to the
// frozen kernel run serially, bit for bit. At lanes 1 and 7 and workers 1,
// 2, 3 and 8 the batches finish in whatever order the scheduler picks,
// and a first job that holds one worker back (as Compute's local
// properties do) skews that order further; with 7 lanes the last batch is
// short, and the ten-source runs have fewer batches than workers, so some
// workers get none. The pool must run the first job once, never allocate
// more than workers+1 slots, and allocate exactly one at one worker.
func TestBrandesFoldOrderMatchesFrozen(t *testing.T) {
	for _, g := range []*graph.Graph{goldenGraph(t), gen.HolmeKim(120, 3, 0.5, rng(8))} {
		c, _ := lccCSR(g)
		all := pickSources(c.n, Options{ExactThreshold: c.n}.withDefaults())
		for _, srcs := range [][]int32{all, all[:10]} {
			if len(srcs)%7 == 0 {
				t.Fatalf("%d sources: no short final batch at 7 lanes", len(srcs))
			}
			scale := float64(c.n) / float64(len(srcs))
			want := refComputePaths(c, srcs, scale, 1)
			for _, lanes := range []int{1, 7} {
				for _, workers := range []int{1, 2, 3, 8} {
					for _, held := range []bool{false, true} {
						var first func()
						ran := 0
						if held {
							first = func() {
								ran++
								time.Sleep(time.Millisecond)
							}
						}
						r := newPathRun(c, srcs, scale, workers, lanes)
						got := r.run(first)
						tag := fmt.Sprintf("n=%d sources=%d lanes=%d workers=%d held=%v", c.n, len(srcs), lanes, workers, held)
						samePaths(t, tag, got, want)
						if held && ran != 1 {
							t.Errorf("%s: first job ran %d times", tag, ran)
						}
						if r.slots > workers+1 || workers == 1 && r.slots != 1 {
							t.Errorf("%s: %d slots allocated", tag, r.slots)
						}
					}
				}
			}
		}
	}
}

// TestBrandesSoloLanesMatchFrozen runs a 40x40 grid, whose corner-to-corner
// path counts (C(78,39) ~ 2^74) pass 2^53, so the batched sigmas round and
// the affected lanes of a wider batch take the one-lane path. It checks
// that the kernel flags such lanes and that the bits still equal the
// serial frozen kernel's at every lane width, one-lane batches included.
func TestBrandesSoloLanesMatchFrozen(t *testing.T) {
	const side = 40
	g := graph.New(side * side)
	for r := 0; r < side; r++ {
		for col := 0; col < side; col++ {
			if col+1 < side {
				g.AddEdge(r*side+col, r*side+col+1)
			}
			if r+1 < side {
				g.AddEdge(r*side+col, (r+1)*side+col)
			}
		}
	}
	c, _ := lccCSR(g)
	sources := pickSources(c.n, Options{ExactThreshold: c.n}.withDefaults())
	lw := newLaneWorker(c.n, maxLanes)
	if big := lw.batch(c, sources[:maxLanes], make([]float64, maxLanes*c.n), maxLanes, nil); big == 0 {
		t.Fatal("no lane of the first batch reached 2^53")
	}
	want := refComputePaths(c, sources, 1, 1)
	for _, lanes := range []int{1, 7, 64} {
		for _, workers := range []int{1, 2} {
			got := computePaths(c, sources, 1, workers, lanes)
			samePaths(t, fmt.Sprintf("grid lanes=%d workers=%d", lanes, workers), got, want)
		}
	}
}

// TestBrandesSoloLaneWitness shows that the one-lane rerun is needed. w's
// predecessors at level 6 of source s's BFS are A, with 2^60 paths, and
// the ends of 64 chains with 128 paths each. s's own BFS queue has A
// first, and 2^60+128 rounds back to 2^60 every time; in a batch with t,
// whose BFS reaches the chain ends first, the entries put A last and the
// sum is the exact 2^60+2^13. The batch must flag s's lane, its
// unrepeated dependencies must differ from the one-lane run's, and
// computePaths must still match the frozen kernel — which it does not
// without the rerun.
func TestBrandesSoloLaneWitness(t *testing.T) {
	const chains, depth = 64, 6
	// Labels: s = 0; A's chain 1..6; small chain k at 7+6k..12+6k; then
	// w, t, and t's chain y1..y5, whose last node is adjacent to every
	// small chain's end, so t reaches them at level 6 too.
	const s, w, t0 = 0, 1 + depth*(chains+1), 2 + depth*(chains+1)
	g := graph.New(t0 + depth)
	edge := func(u, v, mult int) {
		for i := 0; i < mult; i++ {
			g.AddEdge(u, v)
		}
	}
	for k := 0; k <= chains; k++ {
		prev := s
		for d := 0; d < depth; d++ {
			m := 1024 // A's chain: 1024^6 = 2^60 paths
			if k > 0 {
				m = 1 // a small chain: 128 paths, half an ulp of 2^60
				if d == 0 {
					m = 128
				}
			}
			node := 1 + depth*k + d
			edge(prev, node, m)
			prev = node
		}
		edge(prev, w, 1)
		if k > 0 {
			edge(t0+depth-1, prev, 1)
		}
	}
	for y := t0; y < t0+depth-1; y++ {
		edge(y, y+1, 1)
	}

	c := newCSR(g)
	srcs := []int32{t0, s}
	lw := newLaneWorker(c.n, len(srcs))
	batched := make([]float64, len(srcs)*c.n)
	if big := lw.batch(c, srcs, batched, len(srcs), nil); big&0b10 == 0 {
		t.Fatalf("lanes past 2^53 = %b, s's lane not among them", big)
	}
	alone := make([]float64, c.n)
	lw.batch(c, srcs[1:], alone, 1, nil)
	differ := false
	for v := range alone {
		differ = differ || math.Float64bits(alone[v]) != math.Float64bits(batched[v*len(srcs)+1])
	}
	if !differ {
		t.Error("the batched dependencies of s equal the one-lane run's; the witness lost its rounding")
	}
	samePaths(t, "witness", computePaths(c, srcs, 1, 1, len(srcs)), refComputePaths(c, srcs, 1, 1))
}

// TestBrandesRowBudgetMatchesFrozen runs a component large enough that
// rowBudget binds (fewer than maxLanes lanes per batch), in pivot mode
// with several blocks, and pins it to the serial frozen kernel.
func TestBrandesRowBudgetMatchesFrozen(t *testing.T) {
	g := gen.HolmeKim(40000, 2, 0.3, rng(21))
	c, _ := lccCSR(g)
	opts := Options{ExactThreshold: 1, Pivots: 120}.withDefaults()
	sources := pickSources(c.n, opts)
	scale := float64(c.n) / float64(len(sources))
	want := refComputePaths(c, sources, scale, 1)
	for _, workers := range []int{2, 3, 5} {
		lanes := laneLayout(c.n, len(sources), workers)
		if lanes >= maxLanes || lanes*workers >= len(sources) {
			t.Fatalf("workers=%d: %d lanes for n=%d; the budget does not bind", workers, lanes, c.n)
		}
		got := computePaths(c, sources, scale, workers, 0)
		samePaths(t, fmt.Sprintf("budget workers=%d", workers), got, want)
	}
}

// TestLaneLayoutBudget checks the lane arithmetic without allocating a
// slot: a block's dependency slots fit rowBudget whenever one lane per
// worker does, a million-node component still gets one lane, small
// components get the full width, and no batch is wider than an even share
// of the sources.
func TestLaneLayoutBudget(t *testing.T) {
	for _, tc := range []struct{ n, sources, workers, want int }{
		{1 << 20, 1000, 1, 2},
		{1 << 20, 1000, 2, 1},
		{1 << 20, 1000, 8, 1},
		{40000, 120, 2, 26},
		{3161, 3161, 2, 64},
		{3161, 3161, 8, 64},
		{3161, 10, 2, 5},
		{3161, 1, 4, 1},
	} {
		got := laneLayout(tc.n, tc.sources, tc.workers)
		if got != tc.want {
			t.Errorf("laneLayout(%d, %d, %d) = %d, want %d", tc.n, tc.sources, tc.workers, got, tc.want)
		}
		if slots := 8 * got * tc.n * tc.workers; got > 1 && slots > rowBudget {
			t.Errorf("laneLayout(%d, %d, %d): %d slot bytes over the %d budget", tc.n, tc.sources, tc.workers, slots, rowBudget)
		}
	}
	if a := testing.AllocsPerRun(10, func() { laneLayout(1<<20, 1000, 2) }); a != 0 {
		t.Errorf("laneLayout allocates %v times", a)
	}
}

// samePaths fails unless got and want agree bit for bit.
func samePaths(t *testing.T, tag string, got, want *PathStats) {
	t.Helper()
	if math.Float64bits(got.AvgLen) != math.Float64bits(want.AvgLen) {
		t.Errorf("%s: AvgLen %v want %v", tag, got.AvgLen, want.AvgLen)
	}
	if got.Diameter != want.Diameter || got.Sources != want.Sources || got.Exact != want.Exact {
		t.Errorf("%s: diameter/sources/exact %d/%d/%v want %d/%d/%v", tag,
			got.Diameter, got.Sources, got.Exact, want.Diameter, want.Sources, want.Exact)
	}
	if len(got.Dist) != len(want.Dist) {
		t.Errorf("%s: %d path lengths, want %d", tag, len(got.Dist), len(want.Dist))
	}
	for l, wp := range want.Dist {
		if gp, ok := got.Dist[l]; !ok || math.Float64bits(gp) != math.Float64bits(wp) {
			t.Errorf("%s: P(%d) = %v want %v", tag, l, gp, wp)
		}
	}
	for v, wb := range want.Betweenness {
		if gb := got.Betweenness[v]; math.Float64bits(gb) != math.Float64bits(wb) {
			t.Errorf("%s: betweenness[%d] = %v want %v", tag, v, gb, wb)
			break
		}
	}
}
