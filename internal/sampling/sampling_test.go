package sampling

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
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

// mustCrawl builds a crawl through NewCrawl, failing the test on error.
func mustCrawl(t *testing.T, queried []int, lists [][]int, walk []int) *Crawl {
	t.Helper()
	c, err := NewCrawl(queried, lists, walk)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// listOf returns queried node u's neighbor list, nil if u was not queried.
func listOf(c *Crawl, u int) []int {
	if i := slices.Index(c.Queried(), u); i >= 0 {
		return c.Lists()[i]
	}
	return nil
}

// countingAccess records the distinct nodes a crawler queries.
type countingAccess struct {
	Access
	queried map[int]struct{}
}

func (a *countingAccess) NeighborsOf(u int) []int {
	a.queried[u] = struct{}{}
	return a.Access.NeighborsOf(u)
}

func TestRandomWalkBudget(t *testing.T) {
	g := testGraph(t)
	a := &countingAccess{Access: NewGraphAccess(g), queried: make(map[int]struct{})}
	c, err := RandomWalk(a, 0, 0.1, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.1 * float64(g.N()))
	if c.NumQueried() != want {
		t.Fatalf("queried %d want %d", c.NumQueried(), want)
	}
	if len(a.queried) != want {
		t.Fatalf("access counted %d want %d", len(a.queried), want)
	}
	if len(c.Walk()) < c.NumQueried() {
		t.Fatal("walk shorter than distinct queried count")
	}
	// Every consecutive walk pair must be an edge of g.
	for i := 0; i+1 < len(c.Walk()); i++ {
		if !g.HasEdge(c.Walk()[i], c.Walk()[i+1]) {
			t.Fatalf("walk step %d: %d-%d not an edge", i, c.Walk()[i], c.Walk()[i+1])
		}
	}
}

func TestRandomWalkSteps(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalkSteps(NewGraphAccess(g), 0, 300, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Walk()) != 300 {
		t.Fatalf("walk length %d want 300", len(c.Walk()))
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
	if c.Queried()[0] != 0 {
		t.Fatal("BFS must start at the seed")
	}
	if c.Walk() != nil {
		t.Fatal("BFS must not produce a walk sequence")
	}
	// BFS queries the seed's entire neighborhood before distance-2 nodes.
	pos := make(map[int]int)
	for i, u := range c.Queried() {
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
	for i := 2; i < len(c.Walk()); i++ {
		if c.Walk()[i] == c.Walk()[i-2] && g.Degree(c.Walk()[i-1]) > 1 {
			t.Fatalf("backtrack at step %d via node of degree %d",
				i, g.Degree(c.Walk()[i-1]))
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
	c := mustCrawl(t, []int{0, 2, 5},
		[][]int{g.Neighbors(0), g.Neighbors(2), g.Neighbors(5)},
		[]int{0, 2, 5, 2})
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
	c := mustCrawl(t, []int{0, 1}, [][]int{g.Neighbors(0), g.Neighbors(1)}, nil)
	s := BuildSubgraph(c)
	if s.Graph.M() != 1 {
		t.Fatalf("dedup failed: m=%d", s.Graph.M())
	}
	if s.NumQueried != 2 || len(s.Nodes) != 2 {
		t.Fatalf("unexpected node bookkeeping: %+v", s)
	}
}

// TestBuildSubgraphFollowsLabelRule pins the labeling rule: queried
// nodes keep their first-query order even where it is not ascending, the
// visible nodes follow in ascending ID whatever order the lists name them
// in, and no edge appears that no neighbor list names. The dense rows and
// walk map back to the lists and walk entry for entry.
func TestBuildSubgraphFollowsLabelRule(t *testing.T) {
	c := mustCrawl(t, []int{7, 1, 4},
		[][]int{{9, 1, 2}, {7, 2, 5, 4}, {1, 9}},
		[]int{7, 1, 4, 1, 7})
	s := BuildSubgraph(c)
	if want := []int{7, 1, 4, 2, 5, 9}; !slices.Equal(s.Nodes, want) || s.NumQueried != 3 {
		t.Errorf("nodes %v (%d queried), want %v (3 queried)", s.Nodes, s.NumQueried, want)
	}
	off, adj := c.DenseRows()
	for i, nb := range c.Lists() {
		row := adj[off[i]:off[i+1]]
		if len(row) != len(nb) {
			t.Fatalf("row %d has %d entries, list %d", i, len(row), len(nb))
		}
		for j, d := range row {
			if c.Nodes()[d] != nb[j] {
				t.Errorf("row %d entry %d: dense %d names %d, list names %d", i, j, d, c.Nodes()[d], nb[j])
			}
		}
	}
	if want := []int32{0, 1, 2, 1, 0}; !slices.Equal(c.DenseWalk(), want) {
		t.Errorf("dense walk %v, want %v", c.DenseWalk(), want)
	}
	var got []graph.Edge
	for _, e := range s.Graph.Edges() {
		got = append(got, graph.Edge{U: s.Nodes[e.U], V: s.Nodes[e.V]}.Canon())
	}
	slices.SortFunc(got, func(a, b graph.Edge) int { return cmp.Or(a.U-b.U, a.V-b.V) })
	want := []graph.Edge{{U: 1, V: 2}, {U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 7}, {U: 2, V: 7}, {U: 4, V: 9}, {U: 7, V: 9}}
	if !slices.Equal(got, want) {
		t.Errorf("edges %v, want %v", got, want)
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

// TestLabelConcurrent asks one crawl for its labeling from several
// goroutines at once, as harness cells restoring one crawl do: every caller
// must see the one labeling, and the race detector must stay quiet.
func TestLabelConcurrent(t *testing.T) {
	c, err := RandomWalk(NewGraphAccess(testGraph(t)), 0, 0.1, rng(80))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	nodes := make([][]int, callers)
	subs := make([]*Subgraph, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				subs[i] = BuildSubgraph(c)
				nodes[i] = subs[i].Nodes
			} else {
				c.DenseRows()
				nodes[i] = c.Nodes()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if &nodes[i][0] != &nodes[0][0] {
			t.Fatalf("caller %d saw a labeling of its own", i)
		}
	}
	if subs[0].Graph.M() != subs[2].Graph.M() {
		t.Fatalf("concurrent subgraphs differ: %d vs %d edges", subs[0].Graph.M(), subs[2].Graph.M())
	}
}
