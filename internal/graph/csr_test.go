package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestCSRMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(901))
	for trial := 0; trial < 8; trial++ {
		g := randomMultigraph(r, 30+trial*7, 120+trial*30)
		c := g.CSR()
		if c.N() != g.N() || c.M() != g.M() || c.MaxDegree() != g.MaxDegree() {
			t.Fatalf("trial %d: N/M/MaxDegree mismatch", trial)
		}
		for u := 0; u < g.N(); u++ {
			if c.Degree(u) != g.Degree(u) {
				t.Fatalf("trial %d: Degree(%d) = %d want %d", trial, u, c.Degree(u), g.Degree(u))
			}
			// Endpoint view preserves the raw adjacency order exactly.
			want := g.Neighbors(u)
			got := c.Endpoints(u)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Endpoints(%d) length %d want %d", trial, u, len(got), len(want))
			}
			for i, v := range want {
				if int(got[i]) != v {
					t.Fatalf("trial %d: Endpoints(%d)[%d] = %d want %d", trial, u, i, got[i], v)
				}
			}
			// Distinct view: ascending, multiplicity-correct, loop-free.
			mm := g.NeighborMultiplicities(u)
			nbr, mult := c.Row(u)
			if len(nbr) != len(mm) || c.DistinctDegree(u) != len(mm) {
				t.Fatalf("trial %d: Row(%d) has %d entries want %d", trial, u, len(nbr), len(mm))
			}
			if !sort.SliceIsSorted(nbr, func(i, j int) bool { return nbr[i] < nbr[j] }) {
				t.Fatalf("trial %d: Row(%d) not ascending: %v", trial, u, nbr)
			}
			for i, v := range nbr {
				if int(v) == u {
					t.Fatalf("trial %d: Row(%d) contains a self-loop", trial, u)
				}
				if int(mult[i]) != mm[int(v)] {
					t.Fatalf("trial %d: mult(%d,%d) = %d want %d", trial, u, v, mult[i], mm[int(v)])
				}
			}
			if c.Loops(u) != g.LoopCount(u) {
				t.Fatalf("trial %d: Loops(%d) = %d want %d", trial, u, c.Loops(u), g.LoopCount(u))
			}
			for v := 0; v < g.N(); v++ {
				if got, want := c.Multiplicity(u, v), g.Multiplicity(u, v); got != want {
					t.Fatalf("trial %d: Multiplicity(%d,%d) = %d want %d", trial, u, v, got, want)
				}
				if c.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Fatalf("trial %d: HasEdge(%d,%d) mismatch", trial, u, v)
				}
			}
		}
	}
}

func TestCSREmptyAndIsolated(t *testing.T) {
	if c := New(0).CSR(); c.N() != 0 || c.M() != 0 {
		t.Fatal("empty graph CSR")
	}
	g := New(3)
	g.AddEdge(0, 0) // only a self-loop
	c := g.CSR()
	if c.Degree(0) != 2 || c.DistinctDegree(0) != 0 || c.Loops(0) != 1 {
		t.Fatalf("loop-only node: deg=%d distinct=%d loops=%d", c.Degree(0), c.DistinctDegree(0), c.Loops(0))
	}
	if c.Multiplicity(0, 0) != 2 {
		t.Fatalf("A[0][0] = %d want 2 (Newman convention)", c.Multiplicity(0, 0))
	}
	if c.Degree(2) != 0 || len(c.Endpoints(2)) != 0 {
		t.Fatal("isolated node must have empty rows")
	}
}

// TestCSRInvalidatedByEveryMutator exercises each mutating method of Graph
// and requires the cached CSR snapshot to be dropped, so no reader can
// observe a stale view after any mutation.
func TestCSRInvalidatedByEveryMutator(t *testing.T) {
	base := func() *Graph {
		g := New(4)
		g.AddEdge(2, 1)
		g.AddEdge(0, 1)
		g.AddEdge(0, 0)
		return g
	}
	cases := []struct {
		name   string
		mutate func(g *Graph)
	}{
		{"AddNode", func(g *Graph) { g.AddNode() }},
		{"AddNodes", func(g *Graph) { g.AddNodes(3) }},
		{"AddEdge", func(g *Graph) { g.AddEdge(1, 3) }},
		{"AddEdgeLoop", func(g *Graph) { g.AddEdge(3, 3) }},
		{"RemoveEdge", func(g *Graph) { g.RemoveEdge(0, 1) }},
		{"RemoveEdgeLoop", func(g *Graph) { g.RemoveEdge(0, 0) }},
		{"SortAdjacency", func(g *Graph) { g.SortAdjacency() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := base()
			c := g.CSR()
			if g.CSR() != c {
				t.Fatal("CSR must be cached between calls without mutation")
			}
			tc.mutate(g)
			if g.csr != nil {
				t.Fatalf("%s left the cached CSR in place", tc.name)
			}
			// The rebuilt snapshot reflects the mutation; the old handle
			// keeps answering for the snapshot it was built from.
			c2 := g.CSR()
			if c2 == c {
				t.Fatal("CSR() returned the invalidated snapshot")
			}
			for u := 0; u < g.N(); u++ {
				if c2.Degree(u) != g.Degree(u) {
					t.Fatalf("rebuilt CSR degree(%d) = %d want %d", u, c2.Degree(u), g.Degree(u))
				}
			}
			old := base()
			if c.N() != old.N() || c.M() != old.M() {
				t.Fatalf("stale handle N/M = %d/%d want %d/%d", c.N(), c.M(), old.N(), old.M())
			}
			for u := 0; u < old.N(); u++ {
				for v := 0; v < old.N(); v++ {
					if c.Multiplicity(u, v) != old.Multiplicity(u, v) {
						t.Fatalf("stale handle A[%d][%d] = %d want %d", u, v, c.Multiplicity(u, v), old.Multiplicity(u, v))
					}
				}
			}
		})
	}
}

// A failed RemoveEdge (no such edge) performs no mutation and may keep the
// caches; the snapshot must still match the untouched graph.
func TestCSRSurvivesFailedRemove(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.CSR()
	if g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) should report no edge")
	}
	if got := g.CSR(); got.Multiplicity(0, 1) != 1 {
		t.Fatalf("CSR after failed remove: A[0][1] = %d want 1", got.Multiplicity(0, 1))
	}
	_ = c
}

func TestCloneDoesNotShareCSR(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	_ = g.CSR()
	c := g.Clone()
	c.AddEdge(1, 2)
	if !c.CSR().HasEdge(1, 2) || g.CSR().HasEdge(1, 2) {
		t.Fatal("clone CSR leaked into the original (or vice versa)")
	}
}

func TestSortAdjacencyReordersEndpointView(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 0)
	before := g.CSR().Endpoints(1)
	if before[0] != 2 || before[1] != 0 {
		t.Fatalf("pre-sort endpoint order: %v", before)
	}
	g.SortAdjacency()
	after := g.CSR().Endpoints(1)
	if after[0] != 0 || after[1] != 2 {
		t.Fatalf("post-sort endpoint order: %v", after)
	}
}
