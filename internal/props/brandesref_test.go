package props

// Frozen arc-rescanning Brandes kernel and the differential test pinning
// the successor-list kernel in paths.go to it, float bit for float bit.
// refCompute (csrdiff_test.go) runs the same frozen kernel, so the
// whole-pipeline differential test guards it too.

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

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

// TestBrandesMatchesFrozen pins computePaths to the frozen kernel bit for
// bit — AvgLen, every P(l) entry and every betweenness float — on the
// multigraph corpus and the golden anybeat stand-in, in exact and pivot
// mode (pivot mode exercises scale != 1), at several worker counts.
func TestBrandesMatchesFrozen(t *testing.T) {
	graphs := diffGraphs()
	graphs["anybeat"] = goldenGraph(t)
	for name, g := range graphs {
		c, _ := lccCSR(g)
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
			tag := name + " " + mode.name
			for _, workers := range []int{1, 2, 3} {
				got := computePaths(c, sources, scale, workers)
				want := refComputePaths(c, sources, scale, workers)
				if math.Float64bits(got.AvgLen) != math.Float64bits(want.AvgLen) {
					t.Errorf("%s workers=%d: AvgLen %v want %v", tag, workers, got.AvgLen, want.AvgLen)
				}
				if got.Diameter != want.Diameter || got.Sources != want.Sources || got.Exact != want.Exact {
					t.Errorf("%s workers=%d: diameter/sources/exact %d/%d/%v want %d/%d/%v", tag, workers,
						got.Diameter, got.Sources, got.Exact, want.Diameter, want.Sources, want.Exact)
				}
				if len(got.Dist) != len(want.Dist) {
					t.Errorf("%s workers=%d: %d path lengths, want %d", tag, workers, len(got.Dist), len(want.Dist))
				}
				for l, wp := range want.Dist {
					if gp, ok := got.Dist[l]; !ok || math.Float64bits(gp) != math.Float64bits(wp) {
						t.Errorf("%s workers=%d: P(%d) = %v want %v", tag, workers, l, gp, wp)
					}
				}
				for v, wb := range want.Betweenness {
					if gb := got.Betweenness[v]; math.Float64bits(gb) != math.Float64bits(wb) {
						t.Errorf("%s workers=%d: betweenness[%d] = %v want %v", tag, workers, v, gb, wb)
						break
					}
				}
			}
		}
	}
}
