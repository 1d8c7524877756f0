package sampling

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xabcdef)) }

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.HolmeKim(500, 3, 0.5, rng(11))
	if !g.IsConnected() {
		t.Fatal("test graph must be connected")
	}
	return g
}

// paperGraph builds the 10-node example of Fig. 1.
func paperGraph() *graph.Graph {
	g := graph.New(10)
	// v1..v10 are 0..9. Edges inferred from the example: walking
	// v1,v3,v6,v3 yields E' = {(1,3),(2,3),(3,4),(3,6),(5,6),(6,8)}.
	edges := [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 5}, {4, 5}, {5, 7}, {6, 8}, {8, 9}, {3, 7}, {6, 9}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestRandomWalkBudget(t *testing.T) {
	g := testGraph(t)
	a := NewGraphAccess(g)
	c, err := RandomWalk(a, 0, 0.1, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.1 * float64(g.N()))
	if c.NumQueried() != want {
		t.Fatalf("queried %d want %d", c.NumQueried(), want)
	}
	if a.QueriedCount() != want {
		t.Fatalf("access counted %d want %d", a.QueriedCount(), want)
	}
	if len(c.Walk) < c.NumQueried() {
		t.Fatal("walk shorter than distinct queried count")
	}
	// Every consecutive walk pair must be an edge of g.
	for i := 0; i+1 < len(c.Walk); i++ {
		if !g.HasEdge(c.Walk[i], c.Walk[i+1]) {
			t.Fatalf("walk step %d: %d-%d not an edge", i, c.Walk[i], c.Walk[i+1])
		}
	}
}

func TestRandomWalkSteps(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalkSteps(NewGraphAccess(g), 0, 300, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Walk) != 300 {
		t.Fatalf("walk length %d want 300", len(c.Walk))
	}
	if _, err := RandomWalkSteps(NewGraphAccess(g), 0, 0, rng(2)); err == nil {
		t.Fatal("want error for zero steps")
	}
}

func TestRandomWalkIsolatedNode(t *testing.T) {
	g := graph.New(2)
	g.AddNode()
	if _, err := RandomWalk(NewGraphAccess(g), 0, 1, rng(3)); err == nil {
		t.Fatal("want error when stuck on isolated node")
	}
}

func TestRandomWalkBadFraction(t *testing.T) {
	g := testGraph(t)
	for _, f := range []float64{0, -0.5, 1.5} {
		if _, err := RandomWalk(NewGraphAccess(g), 0, f, rng(4)); err == nil {
			t.Errorf("want error for fraction %v", f)
		}
	}
}

func TestBFSCoversNeighborhoodFirst(t *testing.T) {
	g := testGraph(t)
	c, err := BFS(NewGraphAccess(g), 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.2 * float64(g.N()))
	if c.NumQueried() != want {
		t.Fatalf("queried %d want %d", c.NumQueried(), want)
	}
	if c.Queried[0] != 0 {
		t.Fatal("BFS must start at the seed")
	}
	if c.Walk != nil {
		t.Fatal("BFS must not produce a walk sequence")
	}
	// BFS queries the seed's entire neighborhood before distance-2 nodes.
	pos := make(map[int]int)
	for i, u := range c.Queried {
		pos[u] = i
	}
	maxNbrPos := 0
	for _, v := range g.Neighbors(0) {
		p, ok := pos[v]
		if !ok {
			t.Skip("budget smaller than seed neighborhood")
		}
		if p > maxNbrPos {
			maxNbrPos = p
		}
	}
	if maxNbrPos > g.Degree(0)+1 {
		t.Errorf("BFS order violated: seed neighbor at position %d", maxNbrPos)
	}
}

func TestSnowballLimitsBranching(t *testing.T) {
	g := testGraph(t)
	c, err := Snowball(NewGraphAccess(g), 0, 2, 0.2, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.2 * float64(g.N()))
	if c.NumQueried() != want {
		t.Fatalf("queried %d want %d", c.NumQueried(), want)
	}
	if _, err := Snowball(NewGraphAccess(g), 0, 0, 0.2, rng(5)); err == nil {
		t.Fatal("want error for k=0")
	}
}

func TestForestFire(t *testing.T) {
	g := testGraph(t)
	c, err := ForestFire(NewGraphAccess(g), 0, 0.7, 0.2, rng(6))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.2 * float64(g.N()))
	if c.NumQueried() != want {
		t.Fatalf("queried %d want %d", c.NumQueried(), want)
	}
	for _, pf := range []float64{0, 1, -1} {
		if _, err := ForestFire(NewGraphAccess(g), 0, pf, 0.2, rng(6)); err == nil {
			t.Errorf("want error for pf=%v", pf)
		}
	}
}

func TestForestFireRevives(t *testing.T) {
	// Low pf makes the fire die often; the crawl must still hit its budget.
	g := testGraph(t)
	c, err := ForestFire(NewGraphAccess(g), 0, 0.05, 0.1, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != int(0.1*float64(g.N())) {
		t.Fatalf("revival failed: queried %d", c.NumQueried())
	}
}

func TestMetropolisHastingsWalk(t *testing.T) {
	g := testGraph(t)
	c, err := MetropolisHastingsWalk(NewGraphAccess(g), 0, 0.2, rng(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() < int(0.2*float64(g.N())) {
		t.Fatalf("MH underquaried: %d", c.NumQueried())
	}
}

func TestNonBacktrackingWalk(t *testing.T) {
	g := testGraph(t)
	c, err := NonBacktrackingWalk(NewGraphAccess(g), 0, 0.2, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	// No immediate backtracks unless forced by a degree-1 node.
	for i := 2; i < len(c.Walk); i++ {
		if c.Walk[i] == c.Walk[i-2] && g.Degree(c.Walk[i-1]) > 1 {
			t.Fatalf("backtrack at step %d via node of degree %d",
				i, g.Degree(c.Walk[i-1]))
		}
	}
}

func TestNonBacktrackingDegreeOneBacktracks(t *testing.T) {
	// Path graph 0-1: from 1 the only move is back to 0.
	g := graph.New(2)
	g.AddEdge(0, 1)
	c, err := NonBacktrackingWalk(NewGraphAccess(g), 0, 1.0, rng(10))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != 2 {
		t.Fatalf("queried %d want 2", c.NumQueried())
	}
}

func TestBuildSubgraphPaperExample(t *testing.T) {
	// Reproduce Fig. 1: query v1, v3, v6 (IDs 0, 2, 5).
	g := paperGraph()
	c := &Crawl{
		Queried: []int{0, 2, 5},
		Neighbors: map[int][]int{
			0: g.Neighbors(0),
			2: g.Neighbors(2),
			5: g.Neighbors(5),
		},
		Walk: []int{0, 2, 5, 2},
	}
	s := BuildSubgraph(c)
	// V' = {v1..v6, v8} = IDs {0,1,2,3,4,5,7}: 7 nodes, 6 edges.
	if s.Graph.N() != 7 {
		t.Fatalf("subgraph nodes: %d want 7", s.Graph.N())
	}
	if s.Graph.M() != 6 {
		t.Fatalf("subgraph edges: %d want 6", s.Graph.M())
	}
	if s.NumQueried != 3 {
		t.Fatalf("NumQueried: %d want 3", s.NumQueried)
	}
	// Queried nodes come first, in first-query order.
	for i, u := range []int{0, 2, 5} {
		if s.Nodes[i] != u {
			t.Errorf("relabeled node %d: original %d want %d", i, s.Nodes[i], u)
		}
	}
	// Queried nodes' subgraph degree == true degree; visible nodes' <=.
	for i := 0; i < s.Graph.N(); i++ {
		orig := s.Nodes[i]
		if s.IsQueried(i) {
			if s.Graph.Degree(i) != g.Degree(orig) {
				t.Errorf("queried node %d: subgraph degree %d != true %d",
					orig, s.Graph.Degree(i), g.Degree(orig))
			}
		} else if s.Graph.Degree(i) > g.Degree(orig) {
			t.Errorf("visible node %d: subgraph degree %d > true %d",
				orig, s.Graph.Degree(i), g.Degree(orig))
		}
	}
}

func TestBuildSubgraphDedupsSharedEdges(t *testing.T) {
	// Querying both endpoints of an edge must not duplicate it.
	g := graph.New(2)
	g.AddEdge(0, 1)
	c := &Crawl{
		Queried:   []int{0, 1},
		Neighbors: map[int][]int{0: g.Neighbors(0), 1: g.Neighbors(1)},
	}
	s := BuildSubgraph(c)
	if s.Graph.M() != 1 {
		t.Fatalf("dedup failed: m=%d", s.Graph.M())
	}
	if s.NumQueried != 2 || len(s.Nodes) != 2 {
		t.Fatalf("unexpected node bookkeeping: %+v", s)
	}
}

// TestBuildSubgraphFollowsLabelRule pins the labeling rule on crawls whose
// Queried list and Neighbors keys disagree: a key missing from Queried is
// still a queried node, appended in ascending ID, and a crawl with no
// Queried list at all is labeled from its keys. Neither may wire an edge
// that no neighbor list names.
func TestBuildSubgraphFollowsLabelRule(t *testing.T) {
	nbrs := map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
	for _, tc := range []struct {
		name    string
		queried []int
		nodes   []int
	}{
		{"missing-key", []int{0, 1, 3}, []int{0, 1, 3, 2}},
		{"no-queried-list", nil, []int{0, 1, 2, 3}},
	} {
		c := &Crawl{Queried: tc.queried, Neighbors: nbrs, Walk: []int{0, 1, 2, 3}}
		s := BuildSubgraph(c)
		if !slices.Equal(s.Nodes, tc.nodes) || s.NumQueried != 4 {
			t.Errorf("%s: nodes %v (%d queried), want %v (4 queried)", tc.name, s.Nodes, s.NumQueried, tc.nodes)
		}
		if l := Label(c); !slices.Equal(l.Nodes, s.Nodes) {
			t.Errorf("%s: Label nodes %v differ from the subgraph's %v", tc.name, l.Nodes, s.Nodes)
		}
		var got []graph.Edge
		for _, e := range s.Graph.Edges() {
			got = append(got, graph.Edge{U: s.Nodes[e.U], V: s.Nodes[e.V]}.Canon())
		}
		slices.SortFunc(got, func(a, b graph.Edge) int { return cmp.Or(a.U-b.U, a.V-b.V) })
		if want := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}; !slices.Equal(got, want) {
			t.Errorf("%s: edges %v, want %v", tc.name, got, want)
		}
	}
}

func TestSubgraphLemma1OnRealWalk(t *testing.T) {
	// Lemma 1: d'_i == d_i for queried, d'_i <= d_i for visible.
	g := testGraph(t)
	c, err := RandomWalk(NewGraphAccess(g), 3, 0.1, rng(12))
	if err != nil {
		t.Fatal(err)
	}
	s := BuildSubgraph(c)
	for i := 0; i < s.Graph.N(); i++ {
		orig := s.Nodes[i]
		if s.IsQueried(i) {
			if s.Graph.Degree(i) != g.Degree(orig) {
				t.Fatalf("Lemma 1 violated for queried node %d", orig)
			}
		} else if s.Graph.Degree(i) > g.Degree(orig) {
			t.Fatalf("Lemma 1 violated for visible node %d", orig)
		}
	}
	// The subgraph of a connected walk is connected.
	if !s.Graph.IsConnected() {
		t.Fatal("random-walk subgraph must be connected")
	}
}

func TestCrawlDegreeOf(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalk(NewGraphAccess(g), 0, 0.05, rng(13))
	if err != nil {
		t.Fatal(err)
	}
	u := c.Queried[0]
	d, ok := c.DegreeOf(u)
	if !ok || d != g.Degree(u) {
		t.Fatalf("DegreeOf(%d) = %d,%v want %d,true", u, d, ok, g.Degree(u))
	}
	if _, ok := c.DegreeOf(-1); ok {
		t.Fatal("DegreeOf should fail for unqueried node")
	}
}

// TestSeededRandomWalkMatchesManualSeeding pins the CLI seed-derivation
// contract: SeededRandomWalk must replay exactly what `crawl -seed S` has
// always done (PCG(S, S^0x27d4eb2f), optional start-node draw), because the
// restored daemon's content-addressed cache keys assume the two paths
// produce identical crawls.
func TestSeededRandomWalkMatchesManualSeeding(t *testing.T) {
	g := testGraph(t)
	const seed = uint64(9)

	// Drawn start node.
	r := rand.New(rand.NewPCG(seed, seed^0x27d4eb2f))
	start := r.IntN(g.N())
	want, err := RandomWalk(NewGraphAccess(g), start, 0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SeededRandomWalk(NewGraphAccess(g), -1, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("SeededRandomWalk(-1) differs from the manual draw-then-walk sequence")
	}

	// Pinned start node: no draw is consumed before the walk.
	r = rand.New(rand.NewPCG(seed, seed^0x27d4eb2f))
	want, err = RandomWalk(NewGraphAccess(g), 3, 0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err = SeededRandomWalk(NewGraphAccess(g), 3, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("SeededRandomWalk(3) differs from the pinned-start walk")
	}

	if _, err := SeededRandomWalk(NewGraphAccess(g), g.N(), 0.1, seed); err == nil {
		t.Fatal("out-of-range seed node must error")
	}
}
