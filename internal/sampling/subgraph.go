package sampling

import "sgr/internal/graph"

// Subgraph is the induced subgraph G' = (V', E') of Sec. III-D: E' is the
// union of the neighbor sets of all queried nodes, V' consists of the
// queried nodes plus the nodes visible as their neighbors.
//
// Nodes keep their original IDs from the hidden graph; the Graph field is a
// relabeled dense copy (0..len(Nodes)-1) in the crawl's dense labeling,
// with Nodes giving newID -> oldID.
type Subgraph struct {
	// Graph is the relabeled induced subgraph.
	Graph *graph.Graph
	// Edges lists Graph's edges in the order Graph was built from them:
	// graph.FromEdgeLists(len(Nodes), Edges) rebuilds Graph row for row.
	// It must not be modified.
	Edges []graph.Edge
	// Nodes maps relabeled ID -> original ID. Queried nodes come first, in
	// first-query order, followed by visible nodes in ascending original ID.
	// It is the crawl's node table (Crawl.Nodes) and must not be modified.
	Nodes []int
	// NumQueried is the number of queried nodes; relabeled IDs
	// [0, NumQueried) are queried and [NumQueried, len(Nodes)) are visible.
	NumQueried int
}

// IsQueried reports whether relabeled node u was queried (vs merely visible).
func (s *Subgraph) IsQueried(u int) bool { return u < s.NumQueried }

// BuildSubgraph constructs G' from the crawl's dense rows. Each distinct
// unordered pair in the queried nodes' neighbor lists becomes one edge,
// added at its first appearance in label order: an edge listed twice, or
// seen from both of its queried endpoints, appears once. The hidden graphs
// in this work are simple, so E' is a set of simple edges.
func BuildSubgraph(c *Crawl) *Subgraph {
	l := c.label()
	nq := int32(len(c.queried))
	// Row i skips the pairs {j, i} that an earlier row j added. Those edges
	// are chained per i: last[i] is 1 + the index in edges of the latest,
	// link[e] that of the one added before edge e.
	last := make([]int32, nq)
	edges := make([]graph.Edge, 0, len(l.adj))
	link := make([]int32, 0, len(l.adj))
	// While row i is scanned, mark[v] == i+1 says edge {i, v} is in edges.
	mark := make([]int32, len(l.nodes))
	for i := int32(0); i < nq; i++ {
		stamp := i + 1
		for e := last[i]; e != 0; e = link[e-1] {
			mark[edges[e-1].U] = stamp
		}
		for _, v := range l.adj[l.off[i]:l.off[i+1]] {
			if mark[v] == stamp {
				continue
			}
			mark[v] = stamp
			edges = append(edges, graph.Edge{U: int(i), V: int(v)})
			link = append(link, 0)
			if i < v && v < nq {
				link[len(link)-1], last[v] = last[v], int32(len(edges))
			}
		}
	}
	return &Subgraph{
		Graph:      graph.FromEdgeLists(len(l.nodes), edges),
		Edges:      edges,
		Nodes:      l.nodes,
		NumQueried: len(c.queried),
	}
}
