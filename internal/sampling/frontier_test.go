package sampling

import (
	"slices"
	"testing"

	"sgr/internal/graph"
)

func TestFrontierSamplingBudget(t *testing.T) {
	g := testGraph(t)
	c, err := FrontierSampling(NewGraphAccess(g), []int{0, 1, 2}, 0.2, rng(30))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() < int(0.2*float64(g.N())) {
		t.Fatalf("frontier underqueried: %d", c.NumQueried())
	}
	if len(c.Walk()) == 0 {
		t.Fatal("frontier sampling must emit a walk sequence")
	}
}

func TestFrontierSamplingHandlesDisconnected(t *testing.T) {
	// Two disjoint triangles; walkers seeded in both components can cover
	// both, which a single random walk cannot.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	c, err := FrontierSampling(NewGraphAccess(g), []int{0, 3}, 1.0, rng(31))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != 6 {
		t.Fatalf("frontier should cover both components: queried %d", c.NumQueried())
	}
}

func TestFrontierSamplingErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := FrontierSampling(NewGraphAccess(g), nil, 0.1, rng(32)); err == nil {
		t.Error("want error for no seeds")
	}
	iso := graph.New(2)
	if _, err := FrontierSampling(NewGraphAccess(iso), []int{0}, 1.0, rng(33)); err == nil {
		t.Error("want error for all-isolated seeds")
	}
}

func TestFrontierWalkStepsAreEdges(t *testing.T) {
	g := testGraph(t)
	c, err := FrontierSampling(NewGraphAccess(g), []int{0, 5}, 0.15, rng(34))
	if err != nil {
		t.Fatal(err)
	}
	// Every walk entry must be a queried node with a recorded neighbor list.
	for _, u := range c.Walk() {
		if !slices.Contains(c.Queried(), u) {
			t.Fatalf("walk node %d not queried", u)
		}
	}
}
