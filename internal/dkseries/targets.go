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
	"slices"

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

// jdmCell is one nonzero entry of a JDM row: column degree k' and count
// m(k,k').
type jdmCell struct{ kp, n int }

// JDM is a target joint degree matrix {m*(k,k')}. Row k holds the nonzero
// cells of degree k sorted by ascending k', and both halves of the
// symmetric matrix are stored (m(k,k') sits in row k and in row k'), so a
// row scan touches only nonzero cells, every iteration has a fixed order,
// and memory is O(kmax + nonzero cells) whatever degrees a crawl claims.
// The row sums s(k) = sum_k' mu(k,k') m(k,k') and the number of nonzero
// canonical cells (k <= k') are maintained.
type JDM struct {
	kmax  int
	rows  [][]jdmCell // rows[k]: nonzero cells of row k, ascending k'
	row   []int       // s(k), indexed by degree
	cells int         // nonzero canonical entries
}

// NewJDM returns an empty matrix supporting degrees 1..kmax.
func NewJDM(kmax int) *JDM {
	return &JDM{kmax: kmax, rows: make([][]jdmCell, kmax+1), row: make([]int, kmax+1)}
}

// KMax returns the largest supported degree.
func (j *JDM) KMax() int { return j.kmax }

// find returns the index of k' in row k, or where it would be inserted,
// and whether the cell is present.
func (j *JDM) find(k, kp int) (int, bool) {
	r := j.rows[k]
	lo, hi := 0, len(r)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r[h].kp < kp {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(r) && r[lo].kp == kp
}

// Get returns m(k,k') (symmetric); 0 for degrees outside 0..kmax.
func (j *JDM) Get(k, kp int) int {
	if uint(k) > uint(j.kmax) {
		return 0
	}
	if i, ok := j.find(k, kp); ok {
		return j.rows[k][i].n
	}
	return 0
}

// Add changes m(k,k') by delta, maintaining row sums. Panics if the result
// would be negative (JDM-1 must never be violated by callers) or a degree
// lies outside 0..kmax.
func (j *JDM) Add(k, kp, delta int) {
	if uint(k) > uint(j.kmax) || uint(kp) > uint(j.kmax) {
		panic(fmt.Sprintf("dkseries: m(%d,%d) outside kmax %d", k, kp, j.kmax))
	}
	if delta == 0 {
		return
	}
	i, ok := j.find(k, kp)
	nv := delta
	if ok {
		nv += j.rows[k][i].n
	}
	if nv < 0 {
		panic(fmt.Sprintf("dkseries: m(%d,%d) would become %d", k, kp, nv))
	}
	j.set(k, i, ok, kp, nv)
	if k == kp {
		j.row[k] += 2 * delta
	} else {
		i, ok := j.find(kp, k)
		j.set(kp, i, ok, k, nv)
		j.row[k] += delta
		j.row[kp] += delta
	}
	if !ok {
		j.cells++
	} else if nv == 0 {
		j.cells--
	}
}

// set stores m(k,k') = nv in row k, where i and present are find's result:
// it overwrites, inserts or (at 0) removes the cell.
func (j *JDM) set(k, i int, present bool, kp, nv int) {
	r := j.rows[k]
	switch {
	case !present:
		r = append(r, jdmCell{})
		copy(r[i+1:], r[i:])
		r[i] = jdmCell{kp: kp, n: nv}
		j.rows[k] = r
	case nv == 0:
		j.rows[k] = append(r[:i], r[i+1:]...)
	default:
		r[i].n = nv
	}
}

// RowSum returns s(k) = sum_k' mu(k,k') m(k,k').
func (j *JDM) RowSum(k int) int { return j.row[k] }

// NumCells returns the number of nonzero canonical entries.
func (j *JDM) NumCells() int { return j.cells }

// TotalEdges returns sum_{k<=k'} m(k,k').
func (j *JDM) TotalEdges() int {
	s := 0
	j.IterCells(func(_, _, c int) bool {
		s += c
		return true
	})
	return s
}

// Cells returns a copy of the nonzero canonical entries. Callers may
// mutate the returned map freely; the matrix's internal state (and its
// maintained row sums) cannot be corrupted through it. For allocation-free,
// ordered iteration use IterCells.
func (j *JDM) Cells() map[[2]int]int {
	out := make(map[[2]int]int, j.cells)
	j.IterCells(func(k, kp, c int) bool {
		out[[2]int{k, kp}] = c
		return true
	})
	return out
}

// IterCells calls fn for every nonzero canonical entry (k <= k') in
// ascending (k, k') order, stopping early if fn returns false. The matrix
// must not be mutated during iteration.
func (j *JDM) IterCells(fn func(k, kp, count int) bool) {
	for k := range j.rows {
		i, _ := j.find(k, k)
		for _, c := range j.rows[k][i:] {
			if !fn(k, c.kp, c.n) {
				return
			}
		}
	}
}

// IterRow calls fn for every nonzero entry m(k,k') of row k, both halves
// of the matrix, in ascending k' order, stopping early if fn returns
// false. A degree outside 0..kmax has an empty row. The matrix must not be
// mutated during iteration.
func (j *JDM) IterRow(k int, fn func(kp, count int) bool) {
	if uint(k) > uint(j.kmax) {
		return
	}
	for _, c := range j.rows[k] {
		if !fn(c.kp, c.n) {
			return
		}
	}
}

// Clone returns a deep copy.
func (j *JDM) Clone() *JDM {
	c := &JDM{kmax: j.kmax, rows: make([][]jdmCell, len(j.rows)), row: slices.Clone(j.row), cells: j.cells}
	for k, r := range j.rows {
		c.rows[k] = slices.Clone(r)
	}
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

// CheckAgainstBase verifies JDM-4: m(k,k') >= base m'(k,k') for all pairs,
// naming the first violating cell in ascending (k, k') order.
func (j *JDM) CheckAgainstBase(base *JDM) error {
	var err error
	base.IterCells(func(k, kp, c int) bool {
		if have := j.Get(k, kp); have < c {
			err = fmt.Errorf("dkseries: m(%d,%d) = %d < base %d (JDM-4)", k, kp, have, c)
		}
		return err == nil
	})
	return err
}

// JDMFromGraph extracts the joint degree matrix of g using each node's
// actual degree.
func JDMFromGraph(g *graph.Graph) *JDM {
	deg := make([]int, g.N())
	for u := range deg {
		deg[u] = g.Degree(u)
	}
	return JDMFromBase(g, deg, g.MaxDegree())
}

// JDMFromBase extracts m'(k,k') of a base graph where node i counts as
// having target degree targetDeg[i] (which may exceed its current degree).
func JDMFromBase(base *graph.Graph, targetDeg []int, kmax int) *JDM {
	j := NewJDM(kmax)
	for u := 0; u < base.N(); u++ {
		loops := 0
		for _, v := range base.Neighbors(u) {
			if v > u {
				j.Add(targetDeg[u], targetDeg[v], 1)
			} else if v == u {
				loops++
			}
		}
		if loops > 0 {
			j.Add(targetDeg[u], targetDeg[u], loops/2)
		}
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
