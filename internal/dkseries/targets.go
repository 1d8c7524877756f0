// Package dkseries implements the dK-series machinery of Sec. III-C: target
// degree vectors and joint degree matrices with their realizability
// conditions (DV-1..DV-3, JDM-1..JDM-4), half-edge graph construction that
// extends a fixed base subgraph (Algorithm 5), clustering-targeted edge
// rewiring with incremental triangle maintenance (Algorithm 6), and
// standalone 0K/1K/2K/2.5K graph generators.
//
// Rewiring runs on one engine, RewireSharded: deterministic shards
// propose read-only from independent PCG sub-streams and accepted swaps
// merge in fixed order, so its output is byte-identical at any worker
// count (see the rewire_sharded.go file comment for the full determinism
// contract). The serial loop of Algorithm 6 as written — mutate on every
// attempt, revert on rejection — survives only as a frozen test reference
// for the engine's evaluator and state.
package dkseries

import (
	"fmt"

	"sgr/internal/graph"
)

// DegreeVector is a target degree vector {n*(k)}: index k holds the number
// of nodes that must have degree k in the generated graph. Index 0 is
// unused and must stay zero (the paper's graphs have no isolated nodes).
type DegreeVector []int

// NewDegreeVector returns an all-zero vector supporting degrees 1..kmax.
func NewDegreeVector(kmax int) DegreeVector { return make(DegreeVector, kmax+1) }

// KMax returns the largest supported degree.
func (dv DegreeVector) KMax() int { return len(dv) - 1 }

// NumNodes returns the total number of nodes, sum_k n(k).
func (dv DegreeVector) NumNodes() int {
	s := 0
	for _, c := range dv {
		s += c
	}
	return s
}

// DegreeSum returns sum_k k*n(k) (twice the edge count of any realization).
func (dv DegreeVector) DegreeSum() int {
	s := 0
	for k, c := range dv {
		s += k * c
	}
	return s
}

// Clone returns a copy.
func (dv DegreeVector) Clone() DegreeVector { return append(DegreeVector(nil), dv...) }

// Check verifies realizability conditions DV-1 (nonnegative integers) and
// DV-2 (even degree sum). DV-3 (n(k) >= subgraph count) is context
// dependent and checked by CheckAgainstBase.
func (dv DegreeVector) Check() error {
	if len(dv) > 0 && dv[0] != 0 {
		return fmt.Errorf("dkseries: degree vector has %d isolated nodes", dv[0])
	}
	for k, c := range dv {
		if c < 0 {
			return fmt.Errorf("dkseries: n(%d) = %d negative (DV-1)", k, c)
		}
	}
	if dv.DegreeSum()%2 != 0 {
		return fmt.Errorf("dkseries: odd degree sum %d (DV-2)", dv.DegreeSum())
	}
	return nil
}

// CheckAgainstBase verifies DV-3: n(k) >= baseCount(k) for every degree,
// where baseCount counts base-subgraph nodes by their assigned target degree.
func (dv DegreeVector) CheckAgainstBase(baseCount []int) error {
	for k, c := range baseCount {
		if k >= len(dv) {
			if c > 0 {
				return fmt.Errorf("dkseries: base has %d nodes of degree %d beyond kmax %d (DV-3)", c, k, dv.KMax())
			}
			continue
		}
		if dv[k] < c {
			return fmt.Errorf("dkseries: n(%d) = %d < base count %d (DV-3)", k, dv[k], c)
		}
	}
	return nil
}

// FromGraph extracts the degree vector of g (requires min degree >= 1).
func FromGraph(g *graph.Graph) (DegreeVector, error) {
	dv := NewDegreeVector(g.MaxDegree())
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d == 0 {
			return nil, fmt.Errorf("dkseries: node %d is isolated", u)
		}
		dv[d]++
	}
	return dv, nil
}

// JDM is a target joint degree matrix {m*(k,k')} stored sparsely with
// canonical keys (k <= k'), together with maintained row sums
// s(k) = sum_k' mu(k,k') m(k,k').
type JDM struct {
	kmax  int
	cells map[[2]int]int
	row   []int // s(k), indexed by degree
}

// NewJDM returns an empty matrix supporting degrees 1..kmax.
func NewJDM(kmax int) *JDM {
	return &JDM{kmax: kmax, cells: make(map[[2]int]int), row: make([]int, kmax+1)}
}

// KMax returns the largest supported degree.
func (j *JDM) KMax() int { return j.kmax }

func key(k, kp int) [2]int {
	if k > kp {
		k, kp = kp, k
	}
	return [2]int{k, kp}
}

// Get returns m(k,k') (symmetric).
func (j *JDM) Get(k, kp int) int { return j.cells[key(k, kp)] }

// Add changes m(k,k') by delta, maintaining row sums. Panics if the result
// would be negative (JDM-1 must never be violated by callers).
func (j *JDM) Add(k, kp, delta int) {
	ky := key(k, kp)
	nv := j.cells[ky] + delta
	if nv < 0 {
		panic(fmt.Sprintf("dkseries: m(%d,%d) would become %d", k, kp, nv))
	}
	if nv == 0 {
		delete(j.cells, ky)
	} else {
		j.cells[ky] = nv
	}
	if k == kp {
		j.row[k] += 2 * delta
	} else {
		j.row[k] += delta
		j.row[kp] += delta
	}
}

// RowSum returns s(k) = sum_k' mu(k,k') m(k,k').
func (j *JDM) RowSum(k int) int { return j.row[k] }

// NumCells returns the number of nonzero canonical entries.
func (j *JDM) NumCells() int { return len(j.cells) }

// TotalEdges returns sum_{k<=k'} m(k,k').
func (j *JDM) TotalEdges() int {
	s := 0
	for _, c := range j.cells {
		s += c
	}
	return s
}

// Cells returns a copy of the nonzero canonical entries. Callers may
// mutate the returned map freely; the matrix's internal state (and its
// maintained row sums) cannot be corrupted through it. For allocation-free
// iteration use IterCells.
func (j *JDM) Cells() map[[2]int]int {
	out := make(map[[2]int]int, len(j.cells))
	for ky, v := range j.cells {
		out[ky] = v
	}
	return out
}

// IterCells calls fn for every nonzero canonical entry (k <= k') in
// unspecified order, stopping early if fn returns false. The matrix must
// not be mutated during iteration.
func (j *JDM) IterCells(fn func(k, kp, count int) bool) {
	for ky, v := range j.cells {
		if !fn(ky[0], ky[1], v) {
			return
		}
	}
}

// Clone returns a deep copy.
func (j *JDM) Clone() *JDM {
	c := NewJDM(j.kmax)
	for ky, v := range j.cells {
		c.cells[ky] = v
	}
	copy(c.row, j.row)
	return c
}

// Check verifies JDM-1 (nonnegative; enforced structurally), JDM-2
// (symmetric; enforced by canonical storage) and JDM-3: s(k) == k*n(k) for
// every degree of the target vector.
func (j *JDM) Check(dv DegreeVector) error {
	if j.kmax < dv.KMax() {
		return fmt.Errorf("dkseries: JDM kmax %d < degree vector kmax %d", j.kmax, dv.KMax())
	}
	for k := 1; k <= dv.KMax(); k++ {
		if j.row[k] != k*dv[k] {
			return fmt.Errorf("dkseries: s(%d) = %d != k*n(k) = %d (JDM-3)", k, j.row[k], k*dv[k])
		}
	}
	for k := dv.KMax() + 1; k <= j.kmax; k++ {
		if j.row[k] != 0 {
			return fmt.Errorf("dkseries: s(%d) = %d but n(%d) = 0 (JDM-3)", k, j.row[k], k)
		}
	}
	return nil
}

// CheckAgainstBase verifies JDM-4: m(k,k') >= base m'(k,k') for all pairs.
func (j *JDM) CheckAgainstBase(base *JDM) error {
	//sgr:nondet-ok validation sweep: any violating cell fails identically, only the cell named in the error varies
	for ky, c := range base.cells {
		if j.cells[ky] < c {
			return fmt.Errorf("dkseries: m(%d,%d) = %d < base %d (JDM-4)", ky[0], ky[1], j.cells[ky], c)
		}
	}
	return nil
}

// JDMFromGraph extracts the joint degree matrix of g using each node's
// actual degree.
func JDMFromGraph(g *graph.Graph) *JDM {
	j := NewJDM(g.MaxDegree())
	//sgr:nondet-ok each key owns a disjoint JDM cell and Add is an integer add, so the writes commute
	for kk, c := range g.JointDegreeMatrix() {
		j.Add(kk[0], kk[1], c)
	}
	return j
}

// JDMFromBase extracts m'(k,k') of a base graph where node i counts as
// having target degree targetDeg[i] (which may exceed its current degree).
func JDMFromBase(base *graph.Graph, targetDeg []int, kmax int) *JDM {
	j := NewJDM(kmax)
	for _, e := range base.Edges() {
		j.Add(targetDeg[e.U], targetDeg[e.V], 1)
	}
	return j
}

// BaseDegreeCounts returns n'(k): the number of base nodes with each target
// degree, sized kmax+1.
func BaseDegreeCounts(targetDeg []int, kmax int) []int {
	counts := make([]int, kmax+1)
	for _, d := range targetDeg {
		counts[d]++
	}
	return counts
}
