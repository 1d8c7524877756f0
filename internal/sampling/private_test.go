package sampling

import (
	"testing"

	"sgr/internal/graph"
)

func TestPrivateAccessHidesNeighborLists(t *testing.T) {
	g := testGraph(t)
	pa := NewPrivateAccess(NewGraphAccess(g), []int{3, 5})
	if nb := pa.NeighborsOf(3); nb != nil {
		t.Fatalf("private node leaked neighbors: %v", nb)
	}
	if nb := pa.NeighborsOf(0); len(nb) != g.Degree(0) {
		t.Fatalf("public node neighbors wrong: %d", len(nb))
	}
	if !pa.IsPrivate(5) || pa.IsPrivate(0) {
		t.Fatal("IsPrivate wrong")
	}
}

func TestPrivateAwareWalkAvoidsPrivateNodes(t *testing.T) {
	g := testGraph(t)
	private := []int{2, 7, 11, 13, 17, 19, 23}
	pa := NewPrivateAccess(NewGraphAccess(g), private)
	c, err := PrivateAwareWalk(pa, 0, 0.1, rng(60))
	if err != nil {
		t.Fatal(err)
	}
	privSet := map[int]bool{}
	for _, u := range private {
		privSet[u] = true
	}
	for _, u := range c.Walk() {
		if privSet[u] {
			t.Fatalf("walk stepped onto private node %d", u)
		}
	}
	if c.NumQueried() < int(0.1*float64(g.N())) {
		t.Fatalf("walk underqueried: %d", c.NumQueried())
	}
	// Private nodes may still be visible in the subgraph.
	sub := BuildSubgraph(c)
	if err == nil && sub.Graph.N() == 0 {
		t.Fatal("empty subgraph")
	}
}

func TestPrivateAwareWalkErrors(t *testing.T) {
	g := testGraph(t)
	pa := NewPrivateAccess(NewGraphAccess(g), []int{0})
	if _, err := PrivateAwareWalk(pa, 0, 0.1, rng(61)); err == nil {
		t.Fatal("want error for private seed")
	}
	// Star where all leaves are private: walk from the hub is stuck.
	star := graph.New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	pa2 := NewPrivateAccess(NewGraphAccess(star), []int{1, 2, 3})
	if _, err := PrivateAwareWalk(pa2, 0, 1.0, rng(62)); err == nil {
		t.Fatal("want error when all neighbors are private")
	}
}

func TestPrivateAwareWalkFullPublicGraphMatchesBudget(t *testing.T) {
	g := testGraph(t)
	pa := NewPrivateAccess(NewGraphAccess(g), nil)
	c, err := PrivateAwareWalk(pa, 0, 0.2, rng(63))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != int(0.2*float64(g.N())) {
		t.Fatalf("queried %d", c.NumQueried())
	}
}
