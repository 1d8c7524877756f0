package sampling

import (
	"testing"

	"sgr/internal/graph"
)

// flakyAccess simulates a misbehaving social-network API: it returns a
// different (shuffled, possibly truncated) neighbor slice on every call for
// the same node. The crawler layer must be immune because it caches the
// first answer per node — the paper's access model assumes a static graph,
// and the recorder enforces that view.
type flakyAccess struct {
	g     *graph.Graph
	calls int
}

func (f *flakyAccess) NeighborsOf(u int) []int {
	f.calls++
	nb := append([]int(nil), f.g.Neighbors(u)...)
	// Rotate deterministically by call count to vary the answer.
	if len(nb) > 1 {
		k := f.calls % len(nb)
		nb = append(nb[k:], nb[:k]...)
	}
	return nb
}

func (f *flakyAccess) NumNodes() int { return f.g.N() }

func TestRecorderCachesFirstAnswer(t *testing.T) {
	g := testGraph(t)
	fa := &flakyAccess{g: g}
	c, err := RandomWalk(fa, 0, 0.10, rng(50))
	if err != nil {
		t.Fatal(err)
	}
	// Every node's recorded neighbor list must be internally consistent:
	// same length as the true degree.
	for i, u := range c.Queried() {
		if nb := c.Lists()[i]; len(nb) != g.Degree(u) {
			t.Fatalf("node %d: recorded %d neighbors, true degree %d", u, len(nb), g.Degree(u))
		}
	}
	// Walk steps must follow recorded neighbor lists.
	for i := 0; i+1 < len(c.Walk()); i++ {
		u, v := c.Walk()[i], c.Walk()[i+1]
		found := false
		for _, w := range listOf(c, u) {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("walk step %d->%d not in recorded neighbors", u, v)
		}
	}
}

// asymmetricAccess reports an edge from one side only, as social APIs
// sometimes do for pending/blocked relationships.
type asymmetricAccess struct {
	g *graph.Graph
}

func (a *asymmetricAccess) NeighborsOf(u int) []int {
	nb := a.g.Neighbors(u)
	if u == 0 {
		// Node 0 additionally claims node 1 as a neighbor.
		return append(append([]int(nil), nb...), 1)
	}
	return nb
}

func (a *asymmetricAccess) NumNodes() int { return a.g.N() }

func TestBuildSubgraphToleratesAsymmetricReports(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	aa := &asymmetricAccess{g: g}
	rec := newRecorder(aa)
	rec.query(0)
	rec.query(1)
	c, err := rec.crawl()
	if err != nil {
		t.Fatal(err)
	}
	s := BuildSubgraph(c)
	// The phantom edge 0-1 appears once (deduplicated), and the build
	// must not panic or double count. Nodes 0 and 1 were queried in that
	// order, so they keep dense IDs 0 and 1.
	if got := s.Graph.Multiplicity(0, 1); got != 1 {
		t.Fatalf("phantom edge multiplicity %d want 1", got)
	}
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBFSOnLineGraphExhaustsComponent(t *testing.T) {
	// BFS must stop cleanly when the component is smaller than the budget.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	// nodes 3..5 unreachable
	c, err := BFS(NewGraphAccess(g), 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != 3 {
		t.Fatalf("BFS queried %d want 3 (component exhausted)", c.NumQueried())
	}
}

func TestSnowballOnComponentSmallerThanBudget(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	c, err := Snowball(NewGraphAccess(g), 0, 3, 1.0, rng(51))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != 2 {
		t.Fatalf("snowball queried %d want 2", c.NumQueried())
	}
}

func TestRandomWalkFullFractionCoversConnectedGraph(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalk(NewGraphAccess(g), 0, 1.0, rng(52))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != g.N() {
		t.Fatalf("full walk queried %d of %d", c.NumQueried(), g.N())
	}
	s := BuildSubgraph(c)
	if s.Graph.N() != g.N() || s.Graph.M() != g.M() {
		t.Fatalf("full-coverage subgraph must equal the graph: n=%d m=%d", s.Graph.N(), s.Graph.M())
	}
}
