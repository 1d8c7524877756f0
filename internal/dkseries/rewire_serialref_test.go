package dkseries

// This file freezes the serial Algorithm-6 loop as a test reference: it
// mutates a flat adjSet adjacency (rewire_adjset_test.go) on every attempt
// and reverts on rejection, exactly as the paper states the algorithm.
// TestRewireSerialRefDigest pins its bytes with digests recorded while the
// map-based engine it replaced still held it to them; TestRewireShardedDeltaExact
// and TestShardedStateMatchesSerial use its mutate path and state as the
// ground truth for RewireSharded's read-only evaluator and direct state
// construction; BenchmarkRewire/adjset keeps its cost in BENCH_rewire.json.
// Do not "optimize" this file.

import (
	"math/rand/v2"
	"slices"

	"sgr/internal/graph"
)

// rewireOptions configures the serial reference loop.
type rewireOptions struct {
	// TargetClustering is the estimated degree-dependent clustering
	// coefficient c-hat(k) the rewiring tries to match.
	TargetClustering map[int]float64
	// RC is the coefficient of the number of rewiring attempts: the loop
	// runs RC * len(candidates) attempts (paper default 500). It must
	// pass CheckRC; rewireSerialRef panics otherwise.
	RC float64
	// Rand drives edge selection.
	Rand *rand.Rand
	// ForbidDegenerate rejects swaps that would create a self-loop or a
	// parallel edge, steering the output toward a simple graph (a 2K+
	// style extension; the paper's model permits both).
	ForbidDegenerate bool
}

// rewireSerialRef is the serial Algorithm-6 loop: one *rand.Rand drives
// the whole attempt sequence, and every attempt mutates the adjacency,
// settles the clustering sums, and reverts unless the distance strictly
// decreased. Inputs and outputs mirror RewireSharded.
func rewireSerialRef(n int, fixed []graph.Edge, candidates []graph.Edge, opts rewireOptions) (*graph.Graph, RewireStats) {
	attempts := AttemptBudget(opts.RC, len(candidates))
	st := newSerialState(n, fixed, candidates, opts.TargetClustering)
	stats := RewireStats{InitialL1: st.distance()}
	if len(candidates) > 0 && st.normC > 0 {
		for i := 0; i < attempts; i++ {
			stats.Attempts++
			if st.attempt(opts.Rand, opts.ForbidDegenerate) {
				stats.Accepted++
			}
		}
	}
	stats.FinalL1 = st.distance()
	// Assemble the final graph one AddEdge at a time.
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

// serialState extends the shared rewiring state with the serial loop's
// mutable adjacency and its settle scratch.
type serialState struct {
	*rewireState
	adj *adjSet // multiplicity between distinct nodes, flat rows

	dirty   []int // scratch: degrees touched by the in-flight swap
	inDirty []bool
}

func newSerialState(n int, fixed, candidates []graph.Edge, target map[int]float64) *serialState {
	st := &serialState{rewireState: &rewireState{
		deg: make([]int, n),
		t:   make([]int64, n),
	}}
	// Degrees first: the degree of a node bounds its distinct-neighbor
	// count, so the adjacency rows can be carved from one arena up front.
	bumpDeg := func(e graph.Edge) {
		if e.U == e.V {
			st.deg[e.U] += 2
			return
		}
		st.deg[e.U]++
		st.deg[e.V]++
	}
	for _, e := range fixed {
		bumpDeg(e)
	}
	for _, e := range candidates {
		bumpDeg(e)
	}
	st.adj = newAdjSetSized(st.deg)
	addAdj := func(e graph.Edge) {
		if e.U == e.V {
			return // loops carry degree but no adjacency
		}
		st.adj.Inc(e.U, e.V)
		st.adj.Inc(e.V, e.U)
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
	// Accumulate normC in ascending degree order: float addition is not
	// associative, and map range order would make the normalization — and
	// the reported L1 distances — vary between runs in the last bits.
	for k, c := range target {
		st.tgt[k] = c
	}
	for k := range st.tgt {
		st.normC += st.tgt[k]
	}

	// Initial triangle counts: unordered distinct neighbor pairs straight
	// off the flat slots, A_ab via an O(1) probe. Rows never contain their
	// own node (self-loops are inert here), so no self skip is needed.
	for u := 0; u < n; u++ {
		if st.adj.Len(u) < 2 {
			continue
		}
		keys, counts := st.adj.Row(u)
		for i := 0; i < len(keys); i++ {
			if keys[i] == adjEmpty {
				continue
			}
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == adjEmpty {
					continue
				}
				if ab := st.adj.Get(int(keys[i]), int(keys[j])); ab > 0 {
					st.t[u] += int64(counts[i]) * int64(counts[j]) * int64(ab)
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

func (st *serialState) markDirty(k int) {
	if !st.inDirty[k] {
		st.inDirty[k] = true
		st.dirty = append(st.dirty, k)
	}
}

// bumpT adjusts node x's triangle count by delta, updating per-degree sums.
func (st *serialState) bumpT(x int, delta int64) {
	st.t[x] += delta
	st.sumT[st.deg[x]] += delta
	st.markDirty(st.deg[x])
}

// commonNeighbors visits every common neighbor w of u and v, scanning the
// endpoint with fewer distinct neighbors and probing the other in O(1).
// fn receives w and the product A_uw * A_vw; the total is returned.
// Allocation-free: the row slots are read in place.
func (st *serialState) commonNeighbors(u, v int, fn func(w int, prod int64)) int64 {
	small, large := u, v
	if st.adj.Len(small) > st.adj.Len(large) {
		small, large = large, small
	}
	keys, counts := st.adj.Row(small)
	var cn int64
	for i, wk := range keys {
		if wk == adjEmpty {
			continue
		}
		w := int(wk)
		if w == u || w == v {
			continue
		}
		if cl := st.adj.Get(large, w); cl > 0 {
			prod := int64(counts[i]) * int64(cl)
			cn += prod
			fn(w, prod)
		}
	}
	return cn
}

// addEdge inserts one (u,v) instance, updating triangles. Loops are inert.
func (st *serialState) addEdge(u, v int) {
	if u == v {
		return
	}
	cn := st.commonNeighbors(u, v, func(w int, prod int64) { st.bumpT(w, prod) })
	st.bumpT(u, cn)
	st.bumpT(v, cn)
	st.adj.Inc(u, v)
	st.adj.Inc(v, u)
}

// removeEdge deletes one (u,v) instance, updating triangles.
func (st *serialState) removeEdge(u, v int) {
	if u == v {
		return
	}
	st.adj.Dec(u, v)
	st.adj.Dec(v, u)
	cn := st.commonNeighbors(u, v, func(w int, prod int64) { st.bumpT(w, -prod) })
	st.bumpT(u, -cn)
	st.bumpT(v, -cn)
}

// settleDirty refreshes term/sum for touched degrees and clears the dirty
// set. Returns the updated total distance numerator. The dirty degrees are
// settled in ascending order: float additions into sum are not associative,
// so a fixed order makes the accumulated distance — and therefore every
// accept/reject decision — independent of adjacency iteration order.
func (st *serialState) settleDirty() {
	slices.Sort(st.dirty) // unlike sort.Ints, no interface boxing
	for _, k := range st.dirty {
		nt := st.termAt(k)
		st.sum += nt - st.term[k]
		st.term[k] = nt
		st.inDirty[k] = false
	}
	st.dirty = st.dirty[:0]
}

// attempt performs one rewiring attempt; reports whether it was accepted.
func (st *serialState) attempt(r *rand.Rand, forbidDegenerate bool) bool {
	// Pick a random candidate half (i of edge e1), then a same-degree half
	// (a of edge e2); swap partners: (i,j),(a,b) -> (i,b),(a,j).
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
		return false // swap would be a no-op
	}
	if forbidDegenerate {
		// Reject swaps introducing loops or parallel edges.
		if i == b || a == j || st.adj.Get(i, b) > 0 || st.adj.Get(a, j) > 0 {
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
		// Accept: re-point the partner halves and their buckets.
		st.removeHalf(halfRef{e1, 1 - s1}, st.deg[j])
		st.removeHalf(halfRef{e2, 1 - s2}, st.deg[b])
		st.setEndpoint(e1, 1-s1, b)
		st.setEndpoint(e2, 1-s2, j)
		st.placeHalf(halfRef{e1, 1 - s1}, st.deg[b])
		st.placeHalf(halfRef{e2, 1 - s2}, st.deg[j])
		return true
	}
	// Revert.
	st.removeEdge(i, b)
	st.removeEdge(a, j)
	st.addEdge(i, j)
	st.addEdge(a, b)
	st.settleDirty()
	return false
}

// buildRows constructs the sorted mirror of a serial state's adjset
// adjacency: the bridge the white-box differential tests use to run the
// read-only evaluator against a state the serial mutate path owns.
func buildRows(st *serialState) *sortedRows {
	n := len(st.deg)
	sr := &sortedRows{off: make([]int, n+1), ln: make([]int32, n)}
	total := 0
	for u, d := range st.deg {
		sr.off[u] = total
		total += d
	}
	sr.off[n] = total
	sr.nbr = make([]int32, total)
	sr.cnt = make([]int32, total)
	for u := 0; u < n; u++ {
		keys, counts := st.adj.Row(u)
		o := sr.off[u]
		w := o
		for i, k := range keys {
			if k == adjEmpty {
				continue
			}
			sr.nbr[w] = k
			sr.cnt[w] = counts[i]
			w++
		}
		sr.ln[u] = int32(w - o)
		row := sr.nbr[o:w]
		// Keep nbr/cnt aligned while sorting: insertion sort, rows are
		// small and nearly always fit in cache.
		for x := 1; x < len(row); x++ {
			for y := x; y > 0 && row[y] < row[y-1]; y-- {
				row[y], row[y-1] = row[y-1], row[y]
				sr.cnt[o+y], sr.cnt[o+y-1] = sr.cnt[o+y-1], sr.cnt[o+y]
			}
		}
	}
	return sr
}
