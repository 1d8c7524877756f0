package dkseries

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"sgr/internal/adjset"
	"sgr/internal/graph"
)

// RewireOptions configures the Algorithm-6 rewiring loop.
type RewireOptions struct {
	// TargetClustering is the estimated degree-dependent clustering
	// coefficient c-hat(k) the rewiring tries to match.
	TargetClustering map[int]float64
	// RC is the coefficient of the number of rewiring attempts: the loop
	// runs RC * len(candidates) attempts (paper default 500). It must
	// pass CheckRC; Rewire panics otherwise.
	RC float64
	// Rand drives edge selection.
	Rand *rand.Rand
	// ForbidDegenerate rejects swaps that would create a self-loop or a
	// parallel edge, steering the output toward a simple graph (a 2K+
	// style extension; the paper's model permits both).
	ForbidDegenerate bool
}

// DefaultRC is the paper's rewiring-attempt coefficient (Sec. V-E).
const DefaultRC = 500

// MaxRC is the largest rewiring-attempt coefficient any entry point
// accepts, 2000x the paper's default. It keeps RC * len(candidates) far
// inside int range for any graph that fits in memory.
const MaxRC = 1e6

// CheckRC reports whether rc is a usable rewiring-attempt coefficient:
// finite and within [0, MaxRC]. NaN, infinities, negative values and
// values past MaxRC are rejected.
func CheckRC(rc float64) error {
	if !(rc >= 0 && rc <= MaxRC) { // false for NaN too
		return fmt.Errorf("rc %v out of range [0, %g]", rc, float64(MaxRC))
	}
	return nil
}

// AttemptBudget is the total number of rewiring attempts both engines run
// for rc and the given candidate count: int(rc * candidates). An invalid rc
// (see CheckRC) or a budget past int range panics instead of truncating to
// a zero or negative budget that would silently skip rewiring; callers
// taking rc from input validate it with CheckRC first.
func AttemptBudget(rc float64, candidates int) int {
	if err := CheckRC(rc); err != nil {
		panic("dkseries: " + err.Error())
	}
	budget := rc * float64(candidates)
	if budget >= math.MaxInt {
		panic(fmt.Sprintf("dkseries: attempt budget %g * %d overflows int", rc, candidates))
	}
	return int(budget)
}

// RewireStats reports what the rewiring loop did. Attempts, Accepted and
// the L1 fields are filled by both engines; Rounds and Recomputed are
// sharded-engine activity counters and stay zero under the serial engine.
type RewireStats struct {
	Attempts  int
	Accepted  int
	InitialL1 float64 // normalized L1 distance of c(k) before rewiring
	FinalL1   float64 // and after
	// Rounds is the number of propose/commit rounds RewireSharded ran.
	Rounds int
	// Recomputed counts proposals whose precomputed delta was invalidated
	// by an earlier commit of the same round and re-evaluated serially.
	Recomputed int
}

// Rewire implements Algorithm 6: given a graph expressed as fixed edges
// (the sampled subgraph E', never touched) plus candidate edges (the added
// edges, E-tilde \ E'), it repeatedly picks two candidate edges whose chosen
// endpoints have equal degree and swaps their partners iff the normalized L1
// distance between the present and target degree-dependent clustering
// coefficients strictly decreases. Degrees, the degree vector and the joint
// degree matrix are all invariant. Gjoka et al.'s variant passes every edge
// as a candidate.
//
// n is the node count; candidates is mutated in place (final endpoints).
// The returned graph is assembled from fixed plus the rewired candidates.
//
// This is the serial reference engine, and its seeded trajectory is
// frozen (pinned byte-for-byte to the map-based reference in
// rewire_mapref_test.go). The restoration pipeline runs the parallel
// RewireSharded instead; use Rewire when a single *rand.Rand must drive
// the whole attempt sequence, as DK25 does.
func Rewire(n int, fixed []graph.Edge, candidates []graph.Edge, opts RewireOptions) (*graph.Graph, RewireStats) {
	attempts := AttemptBudget(opts.RC, len(candidates))
	st := newRewireState(n, fixed, candidates, opts.TargetClustering)
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
	// Assemble the final graph. Rewiring preserves every degree, so the
	// state's degree vector pre-sizes the adjacency exactly: assembly does
	// no per-edge allocation.
	g := graph.NewWithDegrees(st.deg)
	for _, e := range fixed {
		g.AddEdge(e.U, e.V)
	}
	for i, e := range st.ends {
		candidates[i] = e
		g.AddEdge(e.U, e.V)
	}
	return g, stats
}

// halfRef identifies one side of a candidate edge.
type halfRef struct {
	edge int
	side int // 0 -> U, 1 -> V
}

type rewireState struct {
	deg   []int       // node degrees (invariant)
	adj   *adjset.Set // multiplicity between distinct nodes, flat rows
	t     []int64     // per-node triangle counts
	nk    []int64     // nodes per degree
	sumT  []int64     // sum of t over nodes of each degree
	tgt   []float64   // target c-hat(k)
	normC float64     // sum_k c-hat(k)
	term  []float64   // |present c(k) - target c(k)| per degree
	sum   float64     // sum of term

	ends    []graph.Edge // current candidate edge endpoints
	buckets [][]halfRef  // per-degree candidate half-edges
	pos     [][2]int     // pos[edge][side] = index within its bucket

	dirty   []int // scratch: degrees touched by the in-flight swap
	inDirty []bool
}

func newRewireState(n int, fixed, candidates []graph.Edge, target map[int]float64) *rewireState {
	st := &rewireState{
		deg: make([]int, n),
		t:   make([]int64, n),
	}
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
	st.adj = adjset.NewSized(st.deg)
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
			if keys[i] == adjset.Empty {
				continue
			}
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == adjset.Empty {
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

func (st *rewireState) placeHalf(h halfRef, k int) {
	st.pos[h.edge][h.side] = len(st.buckets[k])
	st.buckets[k] = append(st.buckets[k], h)
}

func (st *rewireState) removeHalf(h halfRef, k int) {
	b := st.buckets[k]
	i := st.pos[h.edge][h.side]
	last := b[len(b)-1]
	b[i] = last
	st.pos[last.edge][last.side] = i
	st.buckets[k] = b[:len(b)-1]
}

// endpoint returns the node on the given side of candidate edge e.
func (st *rewireState) endpoint(e, side int) int {
	if side == 0 {
		return st.ends[e].U
	}
	return st.ends[e].V
}

func (st *rewireState) setEndpoint(e, side, node int) {
	if side == 0 {
		st.ends[e].U = node
	} else {
		st.ends[e].V = node
	}
}

// termAt computes |c(k) - target(k)| from current sums.
func (st *rewireState) termAt(k int) float64 {
	return st.termWith(k, st.sumT[k])
}

// termWith computes |c(k) - target(k)| for a hypothetical triangle sum,
// letting the sharded engine's accept test evaluate a proposal without
// mutating sumT. The expression is identical to the serial path bit for
// bit — both engines must make the same float for the same sums.
func (st *rewireState) termWith(k int, sumT int64) float64 {
	var present float64
	if k >= 2 && st.nk[k] > 0 {
		present = 2 * float64(sumT) / (float64(st.nk[k]) * float64(k) * float64(k-1))
	}
	d := present - st.tgt[k]
	if d < 0 {
		d = -d
	}
	return d
}

// distance returns the normalized L1 distance D between present and target
// degree-dependent clustering (0 when the target is all-zero).
func (st *rewireState) distance() float64 {
	if st.normC == 0 {
		return 0
	}
	return st.sum / st.normC
}

func (st *rewireState) markDirty(k int) {
	if !st.inDirty[k] {
		st.inDirty[k] = true
		st.dirty = append(st.dirty, k)
	}
}

// bumpT adjusts node x's triangle count by delta, updating per-degree sums.
func (st *rewireState) bumpT(x int, delta int64) {
	st.t[x] += delta
	st.sumT[st.deg[x]] += delta
	st.markDirty(st.deg[x])
}

// commonNeighbors visits every common neighbor w of u and v, scanning the
// endpoint with fewer distinct neighbors and probing the other in O(1).
// fn receives w and the product A_uw * A_vw; the total is returned.
// Allocation-free: the row slots are read in place.
func (st *rewireState) commonNeighbors(u, v int, fn func(w int, prod int64)) int64 {
	small, large := u, v
	if st.adj.Len(small) > st.adj.Len(large) {
		small, large = large, small
	}
	keys, counts := st.adj.Row(small)
	var cn int64
	for i, wk := range keys {
		if wk == adjset.Empty {
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
func (st *rewireState) addEdge(u, v int) {
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
func (st *rewireState) removeEdge(u, v int) {
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
func (st *rewireState) settleDirty() {
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
func (st *rewireState) attempt(r *rand.Rand, forbidDegenerate bool) bool {
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
