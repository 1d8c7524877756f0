package sampling

import "slices"

// Labeling is the dense relabeling of a crawl that the estimators
// (estimate.NewWalk) and the sampled subgraph (BuildSubgraph) share.
//
// Dense IDs [0, NumQueried) are the queried nodes, the crawl's Neighbors
// keys, in first-query order: a node listed twice in Queried keeps its
// first place, and keys missing from Queried follow in ascending ID. Dense
// IDs [NumQueried, len(Nodes)) are the visible nodes, named in some
// neighbor list but never queried, in ascending ID. A labeling takes
// O(crawl size) memory whatever the node IDs, so a crawl from the network
// cannot inflate it.
type Labeling struct {
	Nodes      []int // dense ID -> crawl node ID
	NumQueried int
	// Walk holds the dense ID of each walk step, -1 at an unqueried node.
	Walk []int32
	// Adj[Off[i]:Off[i+1]] is queried node i's neighbor list as dense IDs,
	// in list order, repeats included.
	Off, Adj []int32
}

// Row returns queried node i's neighbor list as dense IDs.
func (l *Labeling) Row(i int) []int32 { return l.Adj[l.Off[i]:l.Off[i+1]] }

// Label computes the labeling of c. It is the one place that maps crawl
// node IDs to dense IDs.
func Label(c *Crawl) *Labeling {
	total := 0
	for _, nb := range c.Neighbors {
		total += len(nb)
	}
	// Sized for every node the lists could name, so it never grows.
	dense := make(map[int]int32, len(c.Neighbors)+total)
	l := &Labeling{Nodes: make([]int, 0, len(c.Neighbors))}
	add := func(u int) {
		dense[u] = int32(len(l.Nodes))
		l.Nodes = append(l.Nodes, u)
	}
	for _, u := range c.Queried {
		_, dup := dense[u]
		if _, ok := c.Neighbors[u]; ok && !dup {
			add(u)
		}
	}
	if len(l.Nodes) < len(c.Neighbors) {
		var rest []int
		for u := range c.Neighbors {
			if _, ok := dense[u]; !ok {
				rest = append(rest, u)
			}
		}
		slices.Sort(rest)
		for _, u := range rest {
			add(u)
		}
	}
	nq := len(l.Nodes)
	l.NumQueried = nq
	l.Walk = make([]int32, len(c.Walk))
	for i, u := range c.Walk {
		if d, ok := dense[u]; ok {
			l.Walk[i] = d
		} else {
			l.Walk[i] = -1
		}
	}

	// Visible nodes get provisional IDs -1, -2, ... in discovery order
	// until their ascending-ID order is known.
	l.Off = make([]int32, nq+1)
	l.Adj = make([]int32, 0, total)
	var visible []int
	for i, u := range l.Nodes[:nq] {
		for _, v := range c.Neighbors[u] {
			d, ok := dense[v]
			if !ok {
				visible = append(visible, v)
				d = -int32(len(visible))
				dense[v] = d
			}
			l.Adj = append(l.Adj, d)
		}
		l.Off[i+1] = int32(len(l.Adj))
	}
	slices.Sort(visible)
	final := make([]int32, len(visible)) // discovery index -> dense ID
	for k, v := range visible {
		final[-dense[v]-1] = int32(nq + k)
	}
	l.Nodes = append(l.Nodes, visible...)
	for j, d := range l.Adj {
		if d < 0 {
			l.Adj[j] = final[-d-1]
		}
	}
	return l
}
