package dkseries

// This file freezes the original []map[int]int-based rewiring engine as a
// reference implementation. It exists only for tests: the differential
// guard (TestRewireDifferentialAdjsetVsMap) checks that the flat adjset
// loop in rewire_serialref_test.go reproduces it byte-for-byte on
// randomized inputs, and BenchmarkRewire/mapref keeps its cost as the
// recorded baseline in BENCH_rewire.json. Do not "optimize" this file.

import (
	"math/rand/v2"
	"slices"

	"sgr/internal/graph"
)

// rewireMapRef is the map-based twin of rewireSerialRef.
func rewireMapRef(n int, fixed []graph.Edge, candidates []graph.Edge, opts rewireOptions) (*graph.Graph, RewireStats) {
	st := newMapRewireState(n, fixed, candidates, opts.TargetClustering)
	stats := RewireStats{InitialL1: st.distance()}
	if len(candidates) > 0 && st.normC > 0 {
		attempts := int(opts.RC * float64(len(candidates)))
		for i := 0; i < attempts; i++ {
			stats.Attempts++
			if st.attempt(opts.Rand, opts.ForbidDegenerate) {
				stats.Accepted++
			}
		}
	}
	stats.FinalL1 = st.distance()
	g := graph.New(n)
	for _, e := range fixed {
		g.AddEdge(e.U, e.V)
	}
	for i, e := range st.ends {
		candidates[i] = e
		g.AddEdge(e.U, e.V)
	}
	return g, stats
}

type mapRewireState struct {
	deg   []int         // node degrees (invariant)
	adj   []map[int]int // multiplicity between distinct nodes
	t     []int64       // per-node triangle counts
	nk    []int64       // nodes per degree
	sumT  []int64       // sum of t over nodes of each degree
	tgt   []float64     // target c-hat(k)
	normC float64       // sum_k c-hat(k)
	term  []float64     // |present c(k) - target c(k)| per degree
	sum   float64       // sum of term

	ends    []graph.Edge // current candidate edge endpoints
	buckets [][]halfRef  // per-degree candidate half-edges
	pos     [][2]int     // pos[edge][side] = index within its bucket

	dirty   []int // scratch: degrees touched by the in-flight swap
	inDirty []bool
}

func newMapRewireState(n int, fixed, candidates []graph.Edge, target map[int]float64) *mapRewireState {
	st := &mapRewireState{
		deg: make([]int, n),
		adj: make([]map[int]int, n),
		t:   make([]int64, n),
	}
	for i := range st.adj {
		st.adj[i] = make(map[int]int, 4)
	}
	addAdj := func(e graph.Edge) {
		if e.U == e.V {
			st.deg[e.U] += 2
			return
		}
		st.deg[e.U]++
		st.deg[e.V]++
		st.adj[e.U][e.V]++
		st.adj[e.V][e.U]++
	}
	for _, e := range fixed {
		addAdj(e)
	}
	for _, e := range candidates {
		addAdj(e)
	}

	kmax := 0
	for _, d := range st.deg {
		if d > kmax {
			kmax = d
		}
	}
	for k := range target {
		if k > kmax {
			kmax = k
		}
	}
	st.nk = make([]int64, kmax+1)
	st.sumT = make([]int64, kmax+1)
	st.tgt = make([]float64, kmax+1)
	st.term = make([]float64, kmax+1)
	st.inDirty = make([]bool, kmax+1)
	for _, d := range st.deg {
		st.nk[d]++
	}
	// Sorted-order normC accumulation, matching the adjset engine.
	for k, c := range target {
		st.tgt[k] = c
	}
	for k := range st.tgt {
		st.normC += st.tgt[k]
	}

	// Initial triangle counts.
	for u := 0; u < n; u++ {
		row := st.adj[u]
		if len(row) < 2 {
			continue
		}
		nbrs := make([]int, 0, len(row))
		//sgr:nondet-ok nbrs only feeds the unordered-pair sweep below, whose integer bumps commute
		for v := range row {
			nbrs = append(nbrs, v)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := nbrs[i], nbrs[j]
				ra, rb := st.adj[a], st.adj[b]
				if len(ra) > len(rb) {
					a, b = b, a
					ra = st.adj[a]
				}
				if ab := ra[b]; ab > 0 {
					st.t[u] += int64(row[nbrs[i]]) * int64(row[nbrs[j]]) * int64(ab)
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		st.sumT[st.deg[u]] += st.t[u]
	}
	for k := range st.term {
		st.term[k] = st.termAt(k)
		st.sum += st.term[k]
	}

	// Candidate half-edge buckets keyed by endpoint degree.
	st.ends = append([]graph.Edge(nil), candidates...)
	st.buckets = make([][]halfRef, kmax+1)
	st.pos = make([][2]int, len(candidates))
	for i, e := range st.ends {
		st.placeHalf(halfRef{i, 0}, st.deg[e.U])
		st.placeHalf(halfRef{i, 1}, st.deg[e.V])
	}
	return st
}

func (st *mapRewireState) placeHalf(h halfRef, k int) {
	st.pos[h.edge][h.side] = len(st.buckets[k])
	st.buckets[k] = append(st.buckets[k], h)
}

func (st *mapRewireState) removeHalf(h halfRef, k int) {
	b := st.buckets[k]
	i := st.pos[h.edge][h.side]
	last := b[len(b)-1]
	b[i] = last
	st.pos[last.edge][last.side] = i
	st.buckets[k] = b[:len(b)-1]
}

func (st *mapRewireState) endpoint(e, side int) int {
	if side == 0 {
		return st.ends[e].U
	}
	return st.ends[e].V
}

func (st *mapRewireState) setEndpoint(e, side, node int) {
	if side == 0 {
		st.ends[e].U = node
	} else {
		st.ends[e].V = node
	}
}

func (st *mapRewireState) termAt(k int) float64 {
	var present float64
	if k >= 2 && st.nk[k] > 0 {
		present = 2 * float64(st.sumT[k]) / (float64(st.nk[k]) * float64(k) * float64(k-1))
	}
	d := present - st.tgt[k]
	if d < 0 {
		d = -d
	}
	return d
}

func (st *mapRewireState) distance() float64 {
	if st.normC == 0 {
		return 0
	}
	return st.sum / st.normC
}

func (st *mapRewireState) markDirty(k int) {
	if !st.inDirty[k] {
		st.inDirty[k] = true
		st.dirty = append(st.dirty, k)
	}
}

func (st *mapRewireState) bumpT(x int, delta int64) {
	st.t[x] += delta
	st.sumT[st.deg[x]] += delta
	st.markDirty(st.deg[x])
}

func (st *mapRewireState) addEdge(u, v int) {
	if u == v {
		return
	}
	var cn int64
	ru, rv := st.adj[u], st.adj[v]
	small, large := ru, rv
	if len(small) > len(large) {
		small, large = large, small
	}
	//sgr:nondet-ok common-neighbor sweep: integer adds into cn and per-node bumpT slots commute
	for w, cw := range small {
		if w == u || w == v {
			continue
		}
		if cl := large[w]; cl > 0 {
			prod := int64(cw) * int64(cl)
			cn += prod
			st.bumpT(w, prod)
		}
	}
	st.bumpT(u, cn)
	st.bumpT(v, cn)
	ru[v]++
	rv[u]++
}

func (st *mapRewireState) removeEdge(u, v int) {
	if u == v {
		return
	}
	ru, rv := st.adj[u], st.adj[v]
	if ru[v] == 1 {
		delete(ru, v)
		delete(rv, u)
	} else {
		ru[v]--
		rv[u]--
	}
	var cn int64
	small, large := ru, rv
	if len(small) > len(large) {
		small, large = large, small
	}
	//sgr:nondet-ok common-neighbor sweep: integer subtractions from cn and per-node bumpT slots commute
	for w, cw := range small {
		if w == u || w == v {
			continue
		}
		if cl := large[w]; cl > 0 {
			prod := int64(cw) * int64(cl)
			cn += prod
			st.bumpT(w, -prod)
		}
	}
	st.bumpT(u, -cn)
	st.bumpT(v, -cn)
}

// settleDirty matches the adjset engine's sorted settle order (see
// rewire_serialref_test.go): with map iteration the dirty list order is random, and the
// float accumulation into sum is order-sensitive, so sorting is what makes
// an exact differential comparison possible at all.
func (st *mapRewireState) settleDirty() {
	slices.Sort(st.dirty)
	for _, k := range st.dirty {
		nt := st.termAt(k)
		st.sum += nt - st.term[k]
		st.term[k] = nt
		st.inDirty[k] = false
	}
	st.dirty = st.dirty[:0]
}

func (st *mapRewireState) attempt(r *rand.Rand, forbidDegenerate bool) bool {
	e1 := r.IntN(len(st.ends))
	s1 := r.IntN(2)
	i := st.endpoint(e1, s1)
	j := st.endpoint(e1, 1-s1)
	bucket := st.buckets[st.deg[i]]
	h2 := bucket[r.IntN(len(bucket))]
	e2, s2 := h2.edge, h2.side
	if e2 == e1 {
		return false
	}
	a := st.endpoint(e2, s2)
	b := st.endpoint(e2, 1-s2)
	if i == a || j == b {
		return false
	}
	if forbidDegenerate {
		if i == b || a == j || st.adj[i][b] > 0 || st.adj[a][j] > 0 {
			return false
		}
	}

	before := st.sum
	st.removeEdge(i, j)
	st.removeEdge(a, b)
	st.addEdge(i, b)
	st.addEdge(a, j)
	st.settleDirty()
	if st.sum < before {
		st.removeHalf(halfRef{e1, 1 - s1}, st.deg[j])
		st.removeHalf(halfRef{e2, 1 - s2}, st.deg[b])
		st.setEndpoint(e1, 1-s1, b)
		st.setEndpoint(e2, 1-s2, j)
		st.placeHalf(halfRef{e1, 1 - s1}, st.deg[b])
		st.placeHalf(halfRef{e2, 1 - s2}, st.deg[j])
		return true
	}
	st.removeEdge(i, b)
	st.removeEdge(a, j)
	st.addEdge(i, j)
	st.addEdge(a, b)
	st.settleDirty()
	return false
}
