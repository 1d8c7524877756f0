package dkseries

import (
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// verifyRealization checks that g exactly realizes dv and jdm.
func verifyRealization(t *testing.T, g *graph.Graph, dv DegreeVector, jdm *JDM) {
	t.Helper()
	got, err := FromGraph(g)
	if err != nil {
		t.Fatalf("realized graph: %v", err)
	}
	for k := 1; k <= max(dv.KMax(), got.KMax()); k++ {
		want, have := 0, 0
		if k <= dv.KMax() {
			want = dv[k]
		}
		if k <= got.KMax() {
			have = got[k]
		}
		if want != have {
			t.Fatalf("degree vector mismatch at k=%d: got %d want %d", k, have, want)
		}
	}
	gj := JDMFromGraph(g)
	for ky, c := range jdm.Cells() {
		if gj.Get(ky[0], ky[1]) != c {
			t.Fatalf("JDM mismatch at %v: got %d want %d", ky, gj.Get(ky[0], ky[1]), c)
		}
	}
	for ky, c := range gj.Cells() {
		if jdm.Get(ky[0], ky[1]) != c {
			t.Fatalf("extra JDM mass at %v: got %d want %d", ky, c, jdm.Get(ky[0], ky[1]))
		}
	}
}

func TestBuildFromEmptyRealizesTargets(t *testing.T) {
	src := gen.HolmeKim(400, 3, 0.5, rng(2))
	dv, err := FromGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	res, err := Build(nil, nil, dv, jdm, rng(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBase != 0 || res.Graph.N() != src.N() || res.Graph.M() != src.M() {
		t.Fatalf("size mismatch: n=%d m=%d", res.Graph.N(), res.Graph.M())
	}
	if len(res.Added) != src.M() {
		t.Fatalf("added edges %d want %d", len(res.Added), src.M())
	}
	verifyRealization(t, res.Graph, dv, jdm)
}

func TestBuildFromBaseContainsBase(t *testing.T) {
	src := gen.HolmeKim(300, 3, 0.5, rng(4))
	// Base: induced subgraph on the first 60 nodes; target degrees are
	// their full degrees in src.
	nodes := make([]int, 60)
	for i := range nodes {
		nodes[i] = i
	}
	base, _ := src.InducedSubgraph(nodes)
	baseTarget := make([]int, 60)
	for i := range baseTarget {
		baseTarget[i] = src.Degree(i)
	}
	dv, err := FromGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	res, err := Build(base.Edges(), baseTarget, dv, jdm, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	verifyRealization(t, res.Graph, dv, jdm)
	// Every base edge must survive in the result.
	for _, e := range base.Edges() {
		if res.Graph.Multiplicity(e.U, e.V) < base.Multiplicity(e.U, e.V) {
			t.Fatalf("base edge (%d,%d) lost", e.U, e.V)
		}
	}
	// Node degrees must equal target degrees.
	for u := 0; u < res.Graph.N(); u++ {
		if res.Graph.Degree(u) != res.TargetDeg[u] {
			t.Fatalf("node %d degree %d != target %d", u, res.Graph.Degree(u), res.TargetDeg[u])
		}
	}
	if res.Graph.M()-base.M() != len(res.Added) {
		t.Fatalf("added edge bookkeeping: %d vs %d", res.Graph.M()-base.M(), len(res.Added))
	}
}

func TestBuildValidatesInputs(t *testing.T) {
	dv := NewDegreeVector(2)
	dv[1] = 2
	dv[2] = 1
	jdm := NewJDM(2)
	jdm.Add(1, 2, 2)

	// A base edge outside the nodes the target degrees cover.
	if _, err := Build([]graph.Edge{{U: 0, V: 1}}, []int{1}, dv, jdm, rng(6)); err == nil {
		t.Error("want error for a base edge outside the base nodes")
	}
	// Target degree below base degree.
	if _, err := Build([]graph.Edge{{U: 0, V: 1}}, []int{0, 1}, dv, jdm, rng(6)); err == nil {
		t.Error("want error for target < base degree")
	}
	// Odd degree sum.
	bad := NewDegreeVector(2)
	bad[1] = 1
	bad[2] = 1
	if _, err := Build(nil, nil, bad, NewJDM(2), rng(6)); err == nil {
		t.Error("want DV-2 error")
	}
	// JDM-3 violation.
	badJ := NewJDM(2)
	badJ.Add(1, 1, 1)
	if _, err := Build(nil, nil, dv, badJ, rng(6)); err == nil {
		t.Error("want JDM-3 error")
	}
	// DV-3 violation: base has more degree-2 nodes than the target allows.
	p := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	if _, err := Build(p, []int{2, 2, 2}, dv, jdm, rng(6)); err == nil {
		t.Error("want DV-3 error")
	}
}

func TestBuildDeterministicGivenSeed(t *testing.T) {
	src := gen.HolmeKim(150, 2, 0.4, rng(7))
	dv, _ := FromGraph(src)
	jdm := JDMFromGraph(src)
	a, err := Build(nil, nil, dv, jdm, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(nil, nil, dv, jdm, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed produced different graphs at edge %d", i)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
