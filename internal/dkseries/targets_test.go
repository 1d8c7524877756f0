package dkseries

import (
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x77)) }

func TestDegreeVectorBasics(t *testing.T) {
	dv := NewDegreeVector(4)
	dv[1] = 3
	dv[2] = 2
	dv[3] = 1
	if dv.NumNodes() != 6 {
		t.Fatalf("NumNodes: %d", dv.NumNodes())
	}
	if dv.DegreeSum() != 10 {
		t.Fatalf("DegreeSum: %d", dv.DegreeSum())
	}
	if err := dv.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	dv[3] = 2 // degree sum 13: odd
	if err := dv.Check(); err == nil {
		t.Fatal("Check must reject odd degree sum (DV-2)")
	}
	dv2 := NewDegreeVector(2)
	dv2[1] = -1
	if err := dv2.Check(); err == nil {
		t.Fatal("Check must reject negative counts (DV-1)")
	}
	dv3 := NewDegreeVector(2)
	dv3[0] = 1
	if err := dv3.Check(); err == nil {
		t.Fatal("Check must reject isolated nodes")
	}
}

func TestDegreeVectorAgainstBase(t *testing.T) {
	dv := NewDegreeVector(3)
	dv[1] = 2
	dv[2] = 1
	base := []int{0, 2, 1, 0}
	if err := dv.CheckAgainstBase(base); err != nil {
		t.Fatalf("CheckAgainstBase: %v", err)
	}
	base[2] = 2
	if err := dv.CheckAgainstBase(base); err == nil {
		t.Fatal("want DV-3 violation")
	}
}

func TestFromGraph(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	dv, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if dv[1] != 2 || dv[2] != 1 {
		t.Fatalf("FromGraph: %v", dv)
	}
	iso := graph.New(2)
	iso.AddEdge(0, 0)
	if _, err := FromGraph(iso); err == nil {
		t.Fatal("want error for isolated node")
	}
}

func TestJDMAddAndRowSums(t *testing.T) {
	j := NewJDM(4)
	j.Add(1, 2, 3)
	j.Add(2, 2, 1)
	if j.Get(2, 1) != 3 {
		t.Fatalf("Get symmetric: %d", j.Get(2, 1))
	}
	if j.RowSum(1) != 3 {
		t.Fatalf("RowSum(1): %d", j.RowSum(1))
	}
	if j.RowSum(2) != 3+2 { // 3 edges to degree-1 plus mu(2,2)*1
		t.Fatalf("RowSum(2): %d", j.RowSum(2))
	}
	if j.TotalEdges() != 4 {
		t.Fatalf("TotalEdges: %d", j.TotalEdges())
	}
	j.Add(1, 2, -3)
	if j.Get(1, 2) != 0 || j.RowSum(1) != 0 {
		t.Fatal("Add(-3) bookkeeping wrong")
	}
}

func TestJDMAddPanicsBelowZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for negative cell")
		}
	}()
	NewJDM(3).Add(1, 2, -1)
}

func TestJDMCheck(t *testing.T) {
	// Path 0-1-2: degrees 1,2,1. m(1,2)=2.
	dv := NewDegreeVector(2)
	dv[1] = 2
	dv[2] = 1
	j := NewJDM(2)
	j.Add(1, 2, 2)
	if err := j.Check(dv); err != nil {
		t.Fatalf("Check: %v", err)
	}
	j.Add(1, 1, 1)
	if err := j.Check(dv); err == nil {
		t.Fatal("want JDM-3 violation")
	}
}

func TestJDMFromGraphMatchesCheck(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, rng(1))
	dv, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	j := JDMFromGraph(g)
	if err := j.Check(dv); err != nil {
		t.Fatalf("real graph JDM must satisfy JDM-3: %v", err)
	}
	if j.TotalEdges() != g.M() {
		t.Fatalf("TotalEdges %d != m %d", j.TotalEdges(), g.M())
	}
}

func TestJDMAgainstBase(t *testing.T) {
	big := NewJDM(3)
	big.Add(1, 2, 2)
	small := NewJDM(3)
	small.Add(1, 2, 1)
	if err := big.CheckAgainstBase(small); err != nil {
		t.Fatal(err)
	}
	if err := small.CheckAgainstBase(big); err == nil {
		t.Fatal("want JDM-4 violation")
	}
}

func TestJDMFromBaseUsesTargetDegrees(t *testing.T) {
	// Edge (0,1); node 0 target degree 5, node 1 target degree 2.
	j := JDMFromBase([]graph.Edge{{U: 0, V: 1}}, []int{5, 2}, 6)
	if j.Get(2, 5) != 1 {
		t.Fatalf("JDMFromBase: %v", j.Cells())
	}
	// Loop counts once on the diagonal.
	j2 := JDMFromBase([]graph.Edge{{U: 0, V: 0}}, []int{3}, 3)
	if j2.Get(3, 3) != 1 {
		t.Fatalf("loop base JDM: %v", j2.Cells())
	}
}

func TestCloneIsDeep(t *testing.T) {
	j := NewJDM(3)
	j.Add(1, 2, 1)
	c := j.Clone()
	c.Add(1, 2, 5)
	if j.Get(1, 2) != 1 || c.Get(1, 2) != 6 {
		t.Fatal("Clone not deep")
	}
	dv := NewDegreeVector(2)
	dv[1] = 1
	dc := dv.Clone()
	dc[1] = 9
	if dv[1] != 1 {
		t.Fatal("DegreeVector Clone not deep")
	}
}

// TestCellsDoesNotAliasInternalState is the regression test for the
// Cells() aliasing hazard: mutating the returned map must not corrupt the
// matrix or its maintained row sums.
func TestCellsDoesNotAliasInternalState(t *testing.T) {
	j := NewJDM(4)
	j.Add(1, 2, 3)
	j.Add(2, 2, 2)
	cells := j.Cells()
	cells[[2]int{1, 2}] = 99    // corrupt an existing entry
	delete(cells, [2]int{2, 2}) // drop another
	cells[[2]int{3, 4}] = 7     // invent a new one
	if got := j.Get(1, 2); got != 3 {
		t.Fatalf("m(1,2) = %d after caller mutated Cells() copy, want 3", got)
	}
	if got := j.Get(2, 2); got != 2 {
		t.Fatalf("m(2,2) = %d, want 2", got)
	}
	if got := j.Get(3, 4); got != 0 {
		t.Fatalf("m(3,4) = %d, want 0", got)
	}
	if j.RowSum(1) != 3 || j.RowSum(2) != 7 {
		t.Fatalf("row sums corrupted: s(1)=%d s(2)=%d, want 3 and 7", j.RowSum(1), j.RowSum(2))
	}
	if j.TotalEdges() != 5 {
		t.Fatalf("TotalEdges = %d, want 5", j.TotalEdges())
	}
}

// TestIterCellsMatchesCells: the allocation-free iterator visits exactly
// the nonzero canonical entries, and early exit stops the walk.
func TestIterCellsMatchesCells(t *testing.T) {
	j := NewJDM(5)
	j.Add(1, 2, 3)
	j.Add(2, 5, 1)
	j.Add(4, 4, 2)
	got := make(map[[2]int]int)
	j.IterCells(func(k, kp, c int) bool {
		got[[2]int{k, kp}] = c
		return true
	})
	want := j.Cells()
	if len(got) != len(want) {
		t.Fatalf("IterCells visited %d entries, want %d", len(got), len(want))
	}
	for ky, c := range want {
		if got[ky] != c {
			t.Fatalf("IterCells[%v] = %d, want %d", ky, got[ky], c)
		}
	}
	visits := 0
	j.IterCells(func(_, _, _ int) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("early-exit IterCells made %d visits, want 1", visits)
	}
}
