package core

import (
	"math"
	"testing"

	"sgr/internal/estimate"
	"sgr/internal/sampling"
)

// fixedEstimates builds an Estimates with exactly the given degree
// distribution and scalars (JDD/clustering empty unless set).
func fixedEstimates(n, avg float64, dd map[int]float64) *estimate.Estimates {
	return &estimate.Estimates{
		N: n, AvgDeg: avg, Collisions: 1, Lag: 1,
		DegreeDist: dd,
		JDD:        map[estimate.DegreePair]float64{},
		Clustering: map[int]float64{},
	}
}

func TestAlgorithm1PicksSmallestErrorOddDegree(t *testing.T) {
	// n-hat(1) = 10, n-hat(3) = 2.999.. so that n*(3)=3 and incrementing 3
	// costs 1/3 relative error while incrementing 1 costs 1/10: odd degree
	// 1 must win.
	est := fixedEstimates(13, 1.46, map[int]float64{1: 10.0 / 13, 3: 3.0 / 13})
	s := initDegreeVector(est, 0)
	if s.dv[1] != 10 || s.dv[3] != 3 {
		t.Fatalf("init: %v", s.dv)
	}
	// Degree sum = 10 + 9 = 19, odd -> adjustment must fire.
	s.adjustDegreeVector()
	if s.dv[1] != 11 || s.dv[3] != 3 {
		t.Fatalf("adjust picked wrong degree: %v", s.dv)
	}
	if s.dv.DegreeSum()%2 != 0 {
		t.Fatal("degree sum still odd")
	}
}

func TestAlgorithm1NoOpOnEvenSum(t *testing.T) {
	est := fixedEstimates(4, 1.0, map[int]float64{2: 1})
	s := initDegreeVector(est, 0)
	before := s.dv.Clone()
	s.adjustDegreeVector()
	for k := range before {
		if s.dv[k] != before[k] {
			t.Fatal("adjustment must not change an even-sum vector")
		}
	}
}

func TestInitDegreeVectorForcesPositiveCounts(t *testing.T) {
	// P(5) tiny but positive: n*(5) must still be at least 1.
	est := fixedEstimates(100, 2, map[int]float64{2: 0.999, 5: 0.001})
	s := initDegreeVector(est, 0)
	if s.dv[5] != 1 {
		t.Fatalf("n*(5) = %d want 1", s.dv[5])
	}
}

func TestInitDegreeVectorKmaxIncludesSubgraph(t *testing.T) {
	est := fixedEstimates(10, 2, map[int]float64{2: 1})
	s := initDegreeVector(est, 7) // subgraph has a degree-7 node
	if s.dv.KMax() != 7 {
		t.Fatalf("kmax = %d want 7", s.dv.KMax())
	}
}

func TestDeltaPlusInfiniteWithoutMass(t *testing.T) {
	est := fixedEstimates(10, 2, map[int]float64{2: 1})
	s := initDegreeVector(est, 5)
	if !math.IsInf(s.deltaPlus(3), 1) {
		t.Fatal("deltaPlus must be +Inf where the estimate has no mass")
	}
	if math.IsInf(s.deltaPlus(2), 1) {
		t.Fatal("deltaPlus must be finite where the estimate has mass")
	}
}

func TestModifyAssignsVisibleDegreesAtLeastSubgraphDegree(t *testing.T) {
	// Construct a crawl by hand: star center queried, 3 visible leaves.
	c, err := sampling.NewCrawl([]int{0}, [][]int{{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := sampling.BuildSubgraph(c)
	est := fixedEstimates(8, 1.5, map[int]float64{1: 0.5, 3: 0.25, 2: 0.25})
	s, targetDeg, err := buildTargetDegreeVector(est, sub, rng(101))
	if err != nil {
		t.Fatal(err)
	}
	if targetDeg[0] != 3 {
		t.Fatalf("queried center target %d want 3", targetDeg[0])
	}
	for i := 1; i < 4; i++ {
		if targetDeg[i] < 1 {
			t.Fatalf("visible leaf %d target %d < 1", i, targetDeg[i])
		}
	}
	// DV-3 must hold.
	counts := make([]int, s.dv.KMax()+1)
	for _, d := range targetDeg {
		counts[d]++
	}
	for k, c := range counts {
		if c > s.dv[k] {
			t.Fatalf("DV-3 violated at k=%d: %d > %d", k, c, s.dv[k])
		}
	}
}

func TestAlgorithm3ReachesRowTargets(t *testing.T) {
	// Hand-built scenario: degrees 1..3, JDD mass only on (1,2) — the
	// adjustment must still satisfy every row sum.
	est := fixedEstimates(20, 1.6, map[int]float64{1: 0.5, 2: 0.3, 3: 0.2})
	est.JDD = map[estimate.DegreePair]float64{estimate.Pair(1, 2): 1.0}
	s, _, err := buildTargetDegreeVector(est, nil, rng(102))
	if err != nil {
		t.Fatal(err)
	}
	jdm, err := buildTargetJDM(est, s.dv, nil, nil, rng(103))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= s.dv.KMax(); k++ {
		if jdm.RowSum(k) != k*s.dv[k] {
			t.Fatalf("row %d: s=%d want %d", k, jdm.RowSum(k), k*s.dv[k])
		}
	}
}

func TestAlgorithm3ParityHandlingForDegreeOne(t *testing.T) {
	// Force an odd |s(1) - s*(1)| situation: single degree 1 with odd
	// target count is impossible after Algorithm 1, so craft degree 1 and
	// 2 with JDD mass only on (2,2), leaving row 1 entirely to the
	// adjustment.
	est := fixedEstimates(9, 1.33, map[int]float64{1: 2.0 / 3, 2: 1.0 / 3})
	est.JDD = map[estimate.DegreePair]float64{estimate.Pair(2, 2): 1.0}
	s, _, err := buildTargetDegreeVector(est, nil, rng(104))
	if err != nil {
		t.Fatal(err)
	}
	jdm, err := buildTargetJDM(est, s.dv, nil, nil, rng(105))
	if err != nil {
		t.Fatal(err)
	}
	if err := jdm.Check(s.dv); err != nil {
		t.Fatal(err)
	}
	// Row 1 edges can only be m(1,1): its row sum must be even and match.
	if jdm.RowSum(1) != s.dv[1] {
		t.Fatalf("row 1 sum %d want %d", jdm.RowSum(1), s.dv[1])
	}
}

func TestInitJDMForcesPositiveCells(t *testing.T) {
	est := fixedEstimates(100, 4, map[int]float64{2: 0.5, 6: 0.5})
	est.JDD = map[estimate.DegreePair]float64{
		estimate.Pair(2, 6): 0.999,
		estimate.Pair(6, 6): 0.001, // tiny but positive -> at least 1 edge
	}
	s := initJDM(est, mustDV(t, est))
	if s.jdm.Get(6, 6) < 1 {
		t.Fatalf("m*(6,6) = %d want >= 1", s.jdm.Get(6, 6))
	}
}

func mustDV(t *testing.T, est *estimate.Estimates) []int {
	t.Helper()
	s := initDegreeVector(est, 0)
	s.adjustDegreeVector()
	return s.dv
}
