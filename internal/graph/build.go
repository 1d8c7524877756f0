package graph

import "sort"

// Simplify returns a copy of g with self-loops removed and multi-edges
// collapsed to a single edge. This mirrors the paper's dataset preprocessing.
func (g *Graph) Simplify() *Graph {
	s := New(g.N())
	// A pair {u, v}, u < v, is only ever added from row u, so a per-row
	// stamp dedupes it: mark[v] == u+1 says {u, v} is in s.
	mark := make([]int, g.N())
	for u, a := range g.adj {
		for _, v := range a {
			if v <= u || mark[v] == u+1 { // skips loops (v == u) and repeats
				continue
			}
			mark[v] = u + 1
			s.AddEdge(u, v)
		}
	}
	return s
}

// ConnectedComponents returns the node sets of the connected components,
// largest first. Isolated nodes form singleton components.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		members := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
					members = append(members, v)
				}
			}
		}
		comps = append(comps, members)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// IsConnected reports whether the graph is connected (an empty graph is
// considered connected).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// LargestComponent returns the subgraph induced by the largest connected
// component, with nodes relabeled to 0..k-1, and the mapping newID -> oldID.
func (g *Graph) LargestComponent() (*Graph, []int) {
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return New(0), nil
	}
	return g.InducedSubgraph(comps[0])
}

// InducedSubgraph returns the subgraph induced by the given node set, with
// nodes relabeled to 0..len(nodes)-1 in the order given, plus the mapping
// newID -> oldID. Edges (including multi-edges and loops) with both endpoints
// in the set are retained.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	idx := make([]int, g.N()) // old ID -> new ID + 1, 0 outside the set
	for i, u := range nodes {
		idx[u] = i + 1
	}
	sub := New(len(nodes))
	for i, u := range nodes {
		loops := 0
		for _, v := range g.adj[u] {
			if v == u {
				loops++
				continue
			}
			if j := idx[v] - 1; j > i {
				sub.AddEdge(i, j)
			}
		}
		for l := 0; l < loops/2; l++ {
			sub.AddEdge(i, i)
		}
	}
	mapping := append([]int(nil), nodes...)
	return sub, mapping
}

// Preprocess mirrors the paper's dataset preparation: drop edge directions
// (inputs here are already undirected), remove multi-edges and self-loops,
// and extract the largest connected component. Returns the cleaned graph and
// the newID -> oldID mapping.
func Preprocess(g *Graph) (*Graph, []int) {
	return g.Simplify().LargestComponent()
}
