package props

// Frozen arc-rescanning Brandes kernel and the differential test pinning
// the successor-list kernel in paths.go to it, float bit for float bit.
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

	"sgr/internal/gen"
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

// refPathWorkspace is the frozen per-worker state, with the separate
// order buffer the successor-list kernel dropped.
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
// worker count: computePaths merges in source order, so its bits do not
// depend on the worker count.
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
			for _, workers := range []int{1, 2, 3, 5} {
				got := computePaths(c, sources, scale, workers)
				samePaths(t, fmt.Sprintf("%s %s workers=%d", name, mode.name, workers), got, want)
			}
		}
	}
}

// TestBrandesRowBudgetMatchesFrozen runs a component large enough that
// rowBudget binds (fewer than 32 rows per worker, so a block holds fewer
// sources than the workers would claim), in pivot mode with several
// blocks, and pins it to the serial frozen kernel.
func TestBrandesRowBudgetMatchesFrozen(t *testing.T) {
	g := gen.HolmeKim(40000, 2, 0.3, rng(21))
	c, _ := lccCSR(g)
	opts := Options{ExactThreshold: 1, Pivots: 120}.withDefaults()
	sources := pickSources(c.n, opts)
	scale := float64(c.n) / float64(len(sources))
	want := refComputePaths(c, sources, scale, 1)
	for _, workers := range []int{2, 3, 5} {
		rows := blockRows(c.n, len(sources), workers)
		if rows >= 32*workers || rows >= len(sources) {
			t.Fatalf("workers=%d: %d rows per block for n=%d; the budget does not bind", workers, rows, c.n)
		}
		got := computePaths(c, sources, scale, workers)
		samePaths(t, fmt.Sprintf("budget workers=%d", workers), got, want)
	}
}

// TestBlockRowsFloor checks the row-count arithmetic without allocating
// rows: a million-node component in pivot mode gets the 2-rows-per-worker
// floor, never 32 per worker, and a block never exceeds the source count.
func TestBlockRowsFloor(t *testing.T) {
	for _, tc := range []struct{ n, sources, workers, want int }{
		{1 << 20, 1000, 2, 4},
		{1 << 20, 1000, 8, 16},
		{3161, 3161, 2, 64},
		{3161, 3161, 1, 32},
		{3161, 10, 2, 10},
		{100000, 1000, 4, 20},
	} {
		if got := blockRows(tc.n, tc.sources, tc.workers); got != tc.want {
			t.Errorf("blockRows(%d, %d, %d) = %d, want %d", tc.n, tc.sources, tc.workers, got, tc.want)
		}
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
