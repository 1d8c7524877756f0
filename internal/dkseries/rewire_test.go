package dkseries

import (
	"math"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/props"
)

func TestRewirePreservesDegreesAndJDM(t *testing.T) {
	src := gen.HolmeKim(300, 3, 0.6, rng(10))
	dv, _ := FromGraph(src)
	jdm := JDMFromGraph(src)
	res, err := Build(graph.New(0), nil, dv, jdm, rng(11))
	if err != nil {
		t.Fatal(err)
	}
	target := props.DegreeClustering(src)
	out, stats := RewireSharded(src.N(), nil, res.Added, ShardedRewireOptions{
		TargetClustering: target,
		RC:               30,
		Seed1:            12,
	})
	if stats.Accepted == 0 {
		t.Fatal("expected some accepted rewirings")
	}
	verifyRealization(t, out, dv, jdm)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRewireDecreasesClusteringDistance(t *testing.T) {
	src := gen.HolmeKim(400, 3, 0.8, rng(13))
	dv, _ := FromGraph(src)
	jdm := JDMFromGraph(src)
	res, err := Build(graph.New(0), nil, dv, jdm, rng(14))
	if err != nil {
		t.Fatal(err)
	}
	target := props.DegreeClustering(src)
	out, stats := RewireSharded(src.N(), nil, res.Added, ShardedRewireOptions{
		TargetClustering: target,
		RC:               50,
		Seed1:            15,
	})
	if stats.FinalL1 >= stats.InitialL1 {
		t.Fatalf("rewiring did not improve: initial %v final %v", stats.InitialL1, stats.FinalL1)
	}
	// The reported final distance must match a from-scratch recomputation.
	recomputed := clusteringL1(out, target)
	if math.Abs(recomputed-stats.FinalL1) > 1e-9 {
		t.Fatalf("incremental distance drifted: incremental %v recomputed %v",
			stats.FinalL1, recomputed)
	}
}

// clusteringL1 recomputes the normalized L1 distance between g's
// degree-dependent clustering and the target, from scratch.
func clusteringL1(g *graph.Graph, target map[int]float64) float64 {
	present := props.DegreeClustering(g)
	num, den := 0.0, 0.0
	kmax := g.MaxDegree()
	for k := range target {
		if k > kmax {
			kmax = k
		}
	}
	for k := 1; k <= kmax; k++ {
		num += math.Abs(present[k] - target[k])
		den += target[k]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func TestRewireFixedEdgesUntouched(t *testing.T) {
	src := gen.HolmeKim(200, 3, 0.6, rng(16))
	// Split edges: first half fixed, second half candidates.
	edges := src.Edges()
	half := len(edges) / 2
	fixed := edges[:half]
	cands := append([]graph.Edge(nil), edges[half:]...)
	target := map[int]float64{3: 0.9, 4: 0.8, 5: 0.5}
	out, _ := RewireSharded(src.N(), fixed, cands, ShardedRewireOptions{
		TargetClustering: target,
		RC:               20,
		Seed1:            17,
	})
	// All fixed edges must still exist.
	for _, e := range fixed {
		if !out.HasEdge(e.U, e.V) {
			t.Fatalf("fixed edge (%d,%d) removed", e.U, e.V)
		}
	}
	// Degrees must be preserved overall.
	for u := 0; u < src.N(); u++ {
		if out.Degree(u) != src.Degree(u) {
			t.Fatalf("degree of %d changed: %d -> %d", u, src.Degree(u), out.Degree(u))
		}
	}
	if out.M() != src.M() {
		t.Fatalf("edge count changed: %d -> %d", out.M(), src.M())
	}
}

func TestRewireNoCandidatesIsIdentity(t *testing.T) {
	g := gen.HolmeKim(50, 2, 0.5, rng(18))
	out, stats := RewireSharded(g.N(), g.Edges(), nil, ShardedRewireOptions{
		TargetClustering: map[int]float64{2: 0.5},
		RC:               100,
		Seed1:            19,
	})
	if stats.Attempts != 0 {
		t.Fatal("no candidates must mean no attempts")
	}
	if out.M() != g.M() {
		t.Fatal("graph changed without candidates")
	}
}

func TestRewireZeroTargetSkips(t *testing.T) {
	g := gen.HolmeKim(50, 2, 0.5, rng(20))
	_, stats := RewireSharded(g.N(), nil, g.Edges(), ShardedRewireOptions{
		TargetClustering: nil,
		RC:               100,
		Seed1:            21,
	})
	if stats.Attempts != 0 {
		t.Fatal("zero target must skip rewiring")
	}
}

func TestRewireHandlesLoopsAndMultiEdges(t *testing.T) {
	// A multigraph with loops among the candidates must not corrupt state.
	g := graph.New(6)
	edges := []graph.Edge{{U: 0, V: 0}, {U: 1, V: 2}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}, {U: 0, V: 1}, {U: 2, V: 3}}
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	target := map[int]float64{2: 1.0, 3: 1.0}
	out, _ := RewireSharded(6, nil, append([]graph.Edge(nil), edges...), ShardedRewireOptions{
		TargetClustering: target,
		RC:               200,
		Seed1:            22,
	})
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		if out.Degree(u) != g.Degree(u) {
			t.Fatalf("degree of %d changed", u)
		}
	}
}

func TestDK0PreservesNM(t *testing.T) {
	g := gen.HolmeKim(200, 3, 0.5, rng(23))
	d0 := DK0(g, rng(24))
	if d0.N() != g.N() || d0.M() != g.M() {
		t.Fatal("0K must preserve n and m")
	}
}

func TestDK1PreservesDegrees(t *testing.T) {
	g := gen.HolmeKim(200, 3, 0.5, rng(25))
	d1 := DK1(g, rng(26))
	for u := 0; u < g.N(); u++ {
		if d1.Degree(u) != g.Degree(u) {
			t.Fatalf("1K degree of %d: %d want %d", u, d1.Degree(u), g.Degree(u))
		}
	}
}

func TestDK2PreservesJDM(t *testing.T) {
	g := gen.HolmeKim(250, 3, 0.5, rng(27))
	d2, err := DK2(g, rng(28))
	if err != nil {
		t.Fatal(err)
	}
	dv, _ := FromGraph(g)
	verifyRealization(t, d2, dv, JDMFromGraph(g))
}

func TestDK25ImprovesClustering(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.8, rng(29))
	d25, stats, err := DK25(g, 30, rng(30))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalL1 >= stats.InitialL1 {
		t.Fatalf("2.5K rewiring did not improve: %v -> %v", stats.InitialL1, stats.FinalL1)
	}
	dv, _ := FromGraph(g)
	verifyRealization(t, d25, dv, JDMFromGraph(g))
}

func TestDegreeClusteringExactValues(t *testing.T) {
	// Triangle: c(2) = 1.
	tri := graph.New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	c := props.DegreeClustering(tri)
	if math.Abs(c[2]-1) > 1e-12 {
		t.Fatalf("triangle c(2) = %v", c[2])
	}
	// Star: center c(k)=0, leaves c(1)=0.
	star := graph.New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	c = props.DegreeClustering(star)
	for k, v := range c {
		if v != 0 {
			t.Fatalf("star c(%d) = %v", k, v)
		}
	}
}
