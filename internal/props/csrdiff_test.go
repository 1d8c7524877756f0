package props

// Frozen pre-CSR reference implementations of every props function that was
// rewritten onto the shared graph.CSR snapshot, plus differential tests
// pinning the rewrites to them. The references keep the exact shapes of the
// replaced code — per-node NeighborMultiplicities maps, pair multiplicity
// probes, [][]int walks, the map-and-sort csr builder — so a behavioral
// drift in the CSR read path fails here with strict (bit-for-bit)
// equality. The probes go through Graph.Multiplicity, a scan of the
// shorter neighbor list with the same A[u][v] answer as the hashed index
// the replaced code used. This mirrors the labelref_test.go pattern that
// guards the crawl's dense labeling.

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// refNewCSR is the frozen pre-CSR path-view builder: per-node multiplicity
// maps flattened into sorted rows.
func refNewCSR(g *graph.Graph) *csr {
	n := g.N()
	c := &csr{n: n, offset: make([]int32, n+1)}
	type ent struct{ v, m int32 }
	rows := make([][]ent, n)
	total := 0
	for u := 0; u < n; u++ {
		mm := g.NeighborMultiplicities(u)
		row := make([]ent, 0, len(mm))
		for v, m := range mm {
			row = append(row, ent{int32(v), int32(m)})
		}
		sort.Slice(row, func(i, j int) bool { return row[i].v < row[j].v })
		rows[u] = row
		total += len(row)
	}
	c.nbr = make([]int32, total)
	c.mult = make([]int32, total)
	pos := 0
	for u := 0; u < n; u++ {
		c.offset[u] = int32(pos)
		for _, e := range rows[u] {
			c.nbr[pos] = e.v
			c.mult[pos] = e.m
			pos++
		}
	}
	c.offset[n] = int32(pos)
	return c
}

// refTriangleCounts is the frozen pair-probe triangle counter:
// t_i = sum_{j<l} A_ij A_il A_jl over distinct non-self neighbor pairs,
// with A_jl probed through Graph.Multiplicity.
func refTriangleCounts(g *graph.Graph) []int64 {
	t := make([]int64, g.N())
	for u := 0; u < g.N(); u++ {
		mm := g.NeighborMultiplicities(u)
		keys := make([]int, 0, len(mm))
		//sgr:nondet-ok keys only feed the unordered-pair probe below, whose integer adds commute
		for v := range mm {
			keys = append(keys, v)
		}
		for i := 0; i < len(keys); i++ {
			for k := i + 1; k < len(keys); k++ {
				if ajl := g.Multiplicity(keys[i], keys[k]); ajl > 0 {
					t[u] += int64(mm[keys[i]]) * int64(mm[keys[k]]) * int64(ajl)
				}
			}
		}
	}
	return t
}

func refLocalClustering(g *graph.Graph) []float64 {
	t := refTriangleCounts(g)
	out := make([]float64, g.N())
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d >= 2 {
			out[u] = 2 * float64(t[u]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// refNeighborConnectivity is the frozen serial per-endpoint loop over the
// graph's own adjacency lists.
func refNeighborConnectivity(g *graph.Graph) map[int]float64 {
	n := g.N()
	avg := make([]float64, n)
	for u := 0; u < n; u++ {
		k := g.Degree(u)
		if k == 0 {
			continue
		}
		s := 0.0
		for _, v := range g.Neighbors(u) {
			s += float64(g.Degree(v))
		}
		avg[u] = s / float64(k)
	}
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < n; u++ {
		k := g.Degree(u)
		cnt[k]++
		if k > 0 {
			sum[k] += avg[u]
		}
	}
	out := make(map[int]float64, len(cnt))
	for k, c := range cnt {
		out[k] = sum[k] / float64(c)
	}
	return out
}

// refEdgewiseSharedPartners is the frozen probe-based P(s): scan one
// endpoint's multiplicity map, probe the other through Graph.Multiplicity.
func refEdgewiseSharedPartners(g *graph.Graph) map[int]float64 {
	counts := make(map[int]int)
	total := 0
	for u := 0; u < g.N(); u++ {
		mm := g.NeighborMultiplicities(u)
		for v, cuv := range mm {
			if v <= u {
				continue
			}
			sp := 0
			for w, cuw := range mm {
				if w == u || w == v {
					continue
				}
				if cb := g.Multiplicity(v, w); cb > 0 {
					sp += cuw * cb
				}
			}
			counts[sp] += cuv
			total += cuv
		}
	}
	out := make(map[int]float64)
	if total == 0 {
		return out
	}
	for s, c := range counts {
		out[s] = float64(c) / float64(total)
	}
	return out
}

// refLambda1 is the frozen power iteration over g's own adjacency lists.
func refLambda1(g *graph.Graph) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	lambda := 0.0
	for iter := 0; iter < 2000; iter++ {
		copy(y, x)
		for u := 0; u < n; u++ {
			xu := x[u]
			for _, v := range g.Neighbors(u) {
				y[v] += xu
			}
		}
		ray := 0.0
		var norm float64
		for i := range y {
			ray += x[i] * y[i]
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
		if iter > 0 && math.Abs(ray-lambda) < 1e-11*math.Max(1, math.Abs(ray)) {
			lambda = ray
			break
		}
		lambda = ray
	}
	return lambda - 1
}

// refCompute is the frozen pre-CSR Compute pipeline: private throwaway csr,
// materialized LargestComponent, map/probe-based local properties, and the
// frozen arc-rescanning Brandes kernel (brandesref_test.go). For the same
// Options the outputs must match Compute bit for bit.
func refCompute(g *graph.Graph, opts Options) *Result {
	opts = opts.withDefaults()
	local := refLocalClustering(g)
	res := &Result{
		N:                    g.N(),
		AvgDegree:            g.AvgDegree(),
		DegreeDist:           DegreeDist(g),
		NeighborConnectivity: refNeighborConnectivity(g),
		GlobalClustering:     globalClusteringOf(g, local),
		DegreeClustering:     degreeClusteringOf(g, local),
		ESP:                  refEdgewiseSharedPartners(g),
		Lambda1:              refLambda1(g),
	}
	lcc, _ := g.LargestComponent()
	if lcc.N() <= 1 {
		res.PathLenDist = map[int]float64{}
		res.DegreeBetweenness = map[int]float64{}
		res.PathsExact = true
		return res
	}
	c := refNewCSR(lcc)
	sources := pickSources(lcc.N(), opts)
	scale := 1.0
	if len(sources) < lcc.N() {
		scale = float64(lcc.N()) / float64(len(sources))
	}
	// Serial: Compute's betweenness carries the one-worker bits at any
	// Workers value.
	st := refComputePaths(c, sources, scale, 1)
	res.AvgPathLen = st.AvgLen
	res.PathLenDist = st.Dist
	res.Diameter = st.Diameter
	res.PathsExact = st.Exact
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < lcc.N(); u++ {
		k := lcc.Degree(u)
		cnt[k]++
		sum[k] += st.Betweenness[u]
	}
	res.DegreeBetweenness = make(map[int]float64, len(cnt))
	for k, n := range cnt {
		res.DegreeBetweenness[k] = sum[k] / float64(n)
	}
	return res
}

// refDistanceProfile is the frozen D-measure distance profile over a
// materialized LCC and throwaway csr; serial (the parallel version is
// worker-invariant).
func refDistanceProfile(g *graph.Graph, opts Options) ([]float64, float64) {
	opts = opts.withDefaults()
	lcc, _ := g.LargestComponent()
	n := lcc.N()
	if n <= 1 {
		return []float64{1}, 0
	}
	c := refNewCSR(lcc)
	sources := pickSources(n, opts)
	rows := make([][]float64, len(sources))
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for si, s := range sources {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[s] = 0
		queue = append(queue, s)
		counts := []float64{}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for e := c.offset[u]; e < c.offset[u+1]; e++ {
				v := c.nbr[e]
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
					l := int(dist[v])
					for len(counts) < l {
						counts = append(counts, 0)
					}
					counts[l-1]++
				}
			}
		}
		for i := range counts {
			counts[i] /= float64(n - 1)
		}
		rows[si] = counts
	}
	diam := 1
	for _, row := range rows {
		if len(row) > diam {
			diam = len(row)
		}
	}
	mu := make([]float64, diam)
	for _, row := range rows {
		for l, p := range row {
			mu[l] += p
		}
	}
	for l := range mu {
		mu[l] /= float64(len(rows))
	}
	js := 0.0
	for _, row := range rows {
		for l, p := range row {
			if p > 0 {
				js += p * math.Log(p/mu[l])
			}
		}
	}
	js /= float64(len(rows))
	nnd := 0.0
	if diam > 0 {
		nnd = js / math.Log(float64(diam+1))
	}
	return mu, nnd
}

func refDissimilarity(a, b *graph.Graph, opts Options) float64 {
	const w1, w2, w3 = 0.45, 0.45, 0.1
	pa, nndA := refDistanceProfile(a, opts)
	pb, nndB := refDistanceProfile(b, opts)
	first := math.Sqrt(jsDivergence(pa, pb) / math.Log(2))
	second := math.Abs(math.Sqrt(nndA) - math.Sqrt(nndB))
	third := alphaTerm(a, b)
	return w1*first + w2*second + w3*third
}

// refCoreNumbers is the frozen peeling over per-node multiplicity maps.
func refCoreNumbers(g *graph.Graph) []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		mm := g.NeighborMultiplicities(u)
		row := make([]int, 0, len(mm))
		//sgr:nondet-ok reference engine: row order feeds integer counts and tolerance-compared float sums only
		for v := range mm {
			row = append(row, v)
		}
		adj[u] = row
		deg[u] = len(row)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	vert := make([]int, n)
	pos := make([]int, n)
	for u := 0; u < n; u++ {
		pos[u] = bin[deg[u]]
		vert[pos[u]] = u
		bin[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		u := vert[i]
		for _, v := range adj[u] {
			if core[v] > core[u] {
				dv := core[v]
				pv, pw := pos[v], bin[dv]
				w := vert[pw]
				if v != w {
					pos[v], pos[w] = pw, pv
					vert[pv], vert[pw] = w, v
				}
				bin[dv]++
				core[v]--
			}
		}
	}
	return core
}

// refAssortativity is the frozen per-endpoint Pearson correlation over g's
// own adjacency lists.
func refAssortativity(g *graph.Graph) float64 {
	var sx, sy, sxy, sx2, sy2, n float64
	for u := 0; u < g.N(); u++ {
		du := float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			if v == u {
				continue
			}
			dv := float64(g.Degree(v))
			sx += du
			sy += dv
			sxy += du * dv
			sx2 += du * du
			sy2 += dv * dv
			n++
		}
	}
	if n == 0 {
		return 0
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sx2/n - (sx/n)*(sx/n)
	vy := sy2/n - (sy/n)*(sy/n)
	den := math.Sqrt(vx * vy)
	if den == 0 {
		return 0
	}
	return cov / den
}

// diffGraphs is the differential-test corpus: random multigraphs with
// self-loops, multi-edges, isolated nodes and multiple components, plus
// structured generators.
func diffGraphs() map[string]*graph.Graph {
	out := make(map[string]*graph.Graph)
	for trial := 0; trial < 4; trial++ {
		r := rng(uint64(100 + trial))
		n := 40 + 17*trial
		g := graph.New(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.IntN(n), r.IntN(n)
			g.AddEdge(u, v) // u == v makes a self-loop; repeats make multi-edges
		}
		out[string(rune('a'+trial))+"-multigraph"] = g
	}
	// Disconnected: two dense blobs plus isolated nodes.
	r := rng(7)
	g := graph.New(50)
	for i := 0; i < 80; i++ {
		g.AddEdge(r.IntN(20), r.IntN(20))
	}
	for i := 0; i < 60; i++ {
		g.AddEdge(20+r.IntN(20), 20+r.IntN(20))
	}
	out["disconnected"] = g
	out["holme-kim"] = gen.HolmeKim(120, 3, 0.5, rng(8))
	out["single-loop"] = func() *graph.Graph {
		g := graph.New(2)
		g.AddEdge(0, 0)
		return g
	}()
	out["empty"] = graph.New(0)
	return out
}

// TestComputeMatchesFrozenPreCSR pins the whole rewritten Compute pipeline
// — all ten evaluated properties — to the frozen pre-CSR implementation,
// bit for bit, on random multigraphs with self-loops, at multiple worker
// counts and in both exact and pivot modes.
func TestComputeMatchesFrozenPreCSR(t *testing.T) {
	for name, g := range diffGraphs() {
		for _, opts := range []Options{
			{Workers: 1},
			{Workers: 3},
			{Workers: 2, ExactThreshold: 10, Pivots: 7}, // pivot mode
		} {
			got := Compute(g, opts)
			want := refCompute(g, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (workers=%d exact=%d): Compute diverged from frozen pre-CSR pipeline\n got: %+v\nwant: %+v",
					name, opts.Workers, opts.ExactThreshold, got, want)
			}
		}
	}
}

func TestTriangleCountsMatchFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		got := g.TriangleCounts()
		want := refTriangleCounts(g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TriangleCounts: got %v want %v", name, got, want)
		}
	}
}

func TestNeighborConnectivityMatchesFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		if !reflect.DeepEqual(NeighborConnectivity(g), refNeighborConnectivity(g)) {
			t.Errorf("%s: NeighborConnectivity diverged", name)
		}
	}
}

func TestEdgewiseSharedPartnersMatchFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		if !reflect.DeepEqual(EdgewiseSharedPartners(g), refEdgewiseSharedPartners(g)) {
			t.Errorf("%s: EdgewiseSharedPartners diverged", name)
		}
	}
}

func TestLambda1MatchesFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		if got, want := Lambda1(g), refLambda1(g); got != want {
			t.Errorf("%s: Lambda1 = %v want %v", name, got, want)
		}
	}
}

func TestCoreNumbersMatchFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		if !reflect.DeepEqual(CoreNumbers(g), refCoreNumbers(g)) {
			t.Errorf("%s: CoreNumbers diverged", name)
		}
	}
}

func TestAssortativityMatchesFrozen(t *testing.T) {
	for name, g := range diffGraphs() {
		if got, want := Assortativity(g), refAssortativity(g); got != want {
			t.Errorf("%s: Assortativity = %v want %v", name, got, want)
		}
	}
}

func TestDissimilarityMatchesFrozen(t *testing.T) {
	graphs := diffGraphs()
	a, b := graphs["a-multigraph"], graphs["holme-kim"]
	for _, opts := range []Options{{Workers: 1}, {Workers: 1, ExactThreshold: 10, Pivots: 9}} {
		if got, want := Dissimilarity(a, b, opts), refDissimilarity(a, b, opts); got != want {
			t.Errorf("Dissimilarity (exact=%d) = %v want %v", opts.ExactThreshold, got, want)
		}
	}
}

// TestLCCCSRMatchesMaterializedComponent pins the direct LCC projection to
// the LargestComponent + refNewCSR path it replaced.
func TestLCCCSRMatchesMaterializedComponent(t *testing.T) {
	for name, g := range diffGraphs() {
		if g.N() == 0 {
			continue
		}
		sub, deg := lccCSR(g)
		lcc, _ := g.LargestComponent()
		want := refNewCSR(lcc)
		if sub.n != want.n || !reflect.DeepEqual(sub.offset, want.offset) ||
			!reflect.DeepEqual(sub.nbr, want.nbr) || !reflect.DeepEqual(sub.mult, want.mult) {
			t.Errorf("%s: lccCSR arrays diverge from materialized component", name)
		}
		for u := 0; u < sub.n; u++ {
			if int(deg[u]) != lcc.Degree(u) {
				t.Errorf("%s: lccCSR degree(%d) = %d want %d", name, u, deg[u], lcc.Degree(u))
			}
		}
	}
}
