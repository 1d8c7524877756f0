package sampling

import "sgr/internal/graph"

// Subgraph is the induced subgraph G' = (V', E') of Sec. III-D: E' is the
// union of the neighbor sets of all queried nodes, V' consists of the
// queried nodes plus the nodes visible as their neighbors.
//
// Nodes keep their original IDs from the hidden graph; the Graph field is a
// relabeled dense copy (0..len(Nodes)-1) in the crawl's Label order, with
// Nodes giving newID -> oldID.
type Subgraph struct {
	// Graph is the relabeled induced subgraph.
	Graph *graph.Graph
	// Nodes maps relabeled ID -> original ID. Queried nodes come first, in
	// first-query order, followed by visible nodes in ascending original ID.
	Nodes []int
	// NumQueried is the number of queried nodes; relabeled IDs
	// [0, NumQueried) are queried and [NumQueried, len(Nodes)) are visible.
	NumQueried int
}

// IsQueried reports whether relabeled node u was queried (vs merely visible).
func (s *Subgraph) IsQueried(u int) bool { return u < s.NumQueried }

// BuildSubgraph constructs G' from a crawl's labeling (Label). Each
// distinct unordered pair in the queried nodes' neighbor lists becomes one
// edge, added at its first appearance in label order: an edge listed
// twice, or seen from both of its queried endpoints, appears once. The
// hidden graphs in this work are simple, so E' is a set of simple edges.
func BuildSubgraph(c *Crawl) *Subgraph {
	l := Label(c)
	g := graph.New(len(l.Nodes))
	// While row i is scanned, mark[v] == i+1 says edge {i, v} is in g.
	mark := make([]int32, len(l.Nodes))
	for i := 0; i < l.NumQueried; i++ {
		stamp := int32(i + 1)
		for _, v := range g.Neighbors(i) { // edges from earlier rows
			mark[v] = stamp
		}
		for _, v := range l.Row(i) {
			if mark[v] != stamp {
				mark[v] = stamp
				g.AddEdge(i, int(v))
			}
		}
	}
	return &Subgraph{Graph: g, Nodes: l.Nodes, NumQueried: l.NumQueried}
}
