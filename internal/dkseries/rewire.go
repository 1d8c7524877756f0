package dkseries

import (
	"fmt"
	"math"

	"sgr/internal/graph"
)

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

// AttemptBudget is the total number of rewiring attempts RewireSharded runs
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

// RewireStats reports what RewireSharded did.
type RewireStats struct {
	Attempts  int
	Accepted  int
	InitialL1 float64 // normalized L1 distance of c(k) before rewiring
	FinalL1   float64 // and after
	// Rounds is the number of propose/commit rounds RewireSharded ran.
	Rounds int
	// Recomputed counts evaluated proposals that an earlier commit of the
	// same round had made stale: one of their edges was re-pointed or one
	// of their endpoints' rows changed. Under ForbidDegenerate these are
	// the proposals re-checked for degeneracy on the live rows.
	Recomputed int
}

// halfRef identifies one side of a candidate edge.
type halfRef struct {
	edge int
	side int // 0 -> U, 1 -> V
}

// rewireState is the adjacency-free half of the Algorithm-6 state:
// triangle counts, the per-degree clustering sums behind the accept test,
// and the degree-bucketed candidate half-edges. The adjacency itself lives
// in sortedRows.
type rewireState struct {
	deg   []int     // node degrees (invariant)
	t     []int64   // per-node triangle counts
	nk    []int64   // nodes per degree
	sumT  []int64   // sum of t over nodes of each degree
	tgt   []float64 // target c-hat(k)
	normC float64   // sum_k c-hat(k)
	term  []float64 // |present c(k) - target c(k)| per degree
	sum   float64   // sum of term

	ends    []graph.Edge // current candidate edge endpoints
	buckets [][]halfRef  // per-degree candidate half-edges
	pos     [][2]int     // pos[edge][side] = index within its bucket
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
// letting the accept test evaluate a proposal without mutating sumT.
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
