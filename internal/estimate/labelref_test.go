package estimate

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// refCrawl is a crawl as it was stored before it owned its labeling: the
// queried nodes, a map from each to its neighbor list, and the walk.
type refCrawl struct {
	Queried   []int
	Neighbors map[int][]int
	Walk      []int
}

// newRefCrawl builds the map form of c, as NewCrawl did.
func newRefCrawl(c *sampling.Crawl) *refCrawl {
	rc := &refCrawl{Queried: c.Queried(), Walk: c.Walk(), Neighbors: make(map[int][]int, c.NumQueried())}
	for i, u := range c.Queried() {
		rc.Neighbors[u] = c.Lists()[i]
	}
	return rc
}

// refBuildSubgraph is sampling.BuildSubgraph as it was before the crawl
// labeling was shared: its own original -> relabeled map, a visible-node
// set sorted by ID, and a seen-edge set. It is frozen here as the
// reference for TestLabelingMatchesFrozenReference.
func refBuildSubgraph(c *refCrawl) *sampling.Subgraph {
	s := &sampling.Subgraph{}
	index := make(map[int]int)
	for _, u := range c.Queried {
		index[u] = len(s.Nodes)
		s.Nodes = append(s.Nodes, u)
	}
	s.NumQueried = len(s.Nodes)

	visSet := make(map[int]struct{})
	for _, u := range c.Queried {
		for _, v := range c.Neighbors[u] {
			if _, queried := c.Neighbors[v]; !queried {
				visSet[v] = struct{}{}
			}
		}
	}
	visible := make([]int, 0, len(visSet))
	for v := range visSet {
		visible = append(visible, v)
	}
	sort.Ints(visible)
	for _, v := range visible {
		index[v] = len(s.Nodes)
		s.Nodes = append(s.Nodes, v)
	}

	g := graph.New(len(s.Nodes))
	seen := make(map[graph.Edge]struct{})
	for _, u := range c.Queried {
		ru := index[u]
		for _, v := range c.Neighbors[u] {
			e := graph.Edge{U: ru, V: index[v]}.Canon()
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			g.AddEdge(e.U, e.V)
		}
	}
	s.Graph = g
	return s
}

// refNewWalk is NewWalk with the map-based labeling it had before the
// crawl labeling was shared: an idx map over the queried nodes in
// first-query order with a sorted fallback for keys missing from Queried,
// one map lookup per neighbor entry, and -1 for unqueried neighbors. It
// fills the same Walk fields, so the estimators read both walks alike.
func refNewWalk(c *refCrawl) (*Walk, error) {
	if len(c.Walk) < 3 {
		return nil, fmt.Errorf("estimate: walk too short (r=%d, need >= 3)", len(c.Walk))
	}
	idx := make(map[int]int32, len(c.Neighbors))
	ids := make([]int, 0, len(c.Neighbors))
	for _, u := range c.Queried {
		if _, ok := c.Neighbors[u]; !ok {
			continue
		}
		if _, dup := idx[u]; dup {
			continue
		}
		idx[u] = int32(len(ids))
		ids = append(ids, u)
	}
	var rest []int
	for u := range c.Neighbors {
		if _, ok := idx[u]; !ok {
			rest = append(rest, u)
		}
	}
	sort.Ints(rest)
	for _, u := range rest {
		idx[u] = int32(len(ids))
		ids = append(ids, u)
	}

	w := &Walk{Seq: c.Walk, off: make([]int32, len(ids)+1), pos: make([][]int, len(ids)), deg: make([]int, len(ids))}
	for i, u := range ids {
		w.deg[i] = len(c.Neighbors[u])
	}
	w.Deg = make([]int, len(c.Walk))
	for i, u := range c.Walk {
		ui, ok := idx[u]
		if !ok {
			return nil, fmt.Errorf("estimate: walk node %d missing from sampling list", u)
		}
		d := w.deg[ui]
		if d == 0 {
			return nil, fmt.Errorf("estimate: walk visits isolated node %d", u)
		}
		w.Deg[i] = d
		w.pos[ui] = append(w.pos[ui], i)
		w.steps = append(w.steps, ui)
	}
	for i, u := range ids {
		for _, v := range c.Neighbors[u] {
			vi, queried := idx[v]
			if !queried {
				vi = -1
			}
			w.adj = append(w.adj, vi)
		}
		w.off[i+1] = int32(len(w.adj))
	}
	return w, nil
}

// refMultiplicity is Walk.multiplicity as it was, on original IDs through
// the crawl's neighbor map.
func refMultiplicity(nbrs map[int][]int, u, v int) int {
	if u == v {
		return 0
	}
	if _, queried := nbrs[v]; !queried {
		return 0
	}
	c := 0
	for _, x := range nbrs[u] {
		if x == v {
			c++
		}
	}
	return c
}

// phantomCrawl returns a copy of c in which every fourth queried node also
// lists the node queried just before it, an edge the other side does not
// report (or reports once less), the one-sided shape perturbCrawl's
// dropped entries leave in the other direction.
func phantomCrawl(c *sampling.Crawl) *sampling.Crawl {
	lists := make([][]int, c.NumQueried())
	for i := range lists {
		nb := append([]int(nil), c.Lists()[i]...)
		if i%4 == 3 {
			nb = append(nb, c.Queried()[i-1])
		}
		lists[i] = nb
	}
	return mustNewCrawl(c.Queried(), lists, c.Walk())
}

// labelRefCrawls returns, for each of three dataset stand-ins, one crawl by
// every crawler in internal/sampling, each as crawled, perturbed by
// perturbCrawl (repeated and dropped entries) and by phantomCrawl
// (one-sided entries).
func labelRefCrawls(t *testing.T) map[string]*sampling.Crawl {
	out := make(map[string]*sampling.Crawl)
	for di, ds := range gen.Datasets[:3] {
		g := ds.Build(0.02, rng(uint64(40+di)))
		access := sampling.NewGraphAccess(g)
		private := make([]int, 0, g.N()/10)
		for u := 1; u < g.N(); u += 10 {
			private = append(private, u)
		}
		crawlers := []struct {
			name  string
			crawl func(r *rand.Rand) (*sampling.Crawl, error)
		}{
			{"rw", func(r *rand.Rand) (*sampling.Crawl, error) { return sampling.RandomWalk(access, 0, 0.1, r) }},
			{"nbrw", func(r *rand.Rand) (*sampling.Crawl, error) { return sampling.NonBacktrackingWalk(access, 0, 0.1, r) }},
			{"mh", func(r *rand.Rand) (*sampling.Crawl, error) {
				return sampling.MetropolisHastingsWalk(access, 0, 0.1, r)
			}},
			{"frontier", func(r *rand.Rand) (*sampling.Crawl, error) {
				return sampling.FrontierSampling(access, []int{0, 2, 4, 6}, 0.1, r)
			}},
			{"bfs", func(*rand.Rand) (*sampling.Crawl, error) { return sampling.BFS(access, 0, 0.1) }},
			{"snowball", func(r *rand.Rand) (*sampling.Crawl, error) { return sampling.Snowball(access, 0, 50, 0.1, r) }},
			{"forestfire", func(r *rand.Rand) (*sampling.Crawl, error) { return sampling.ForestFire(access, 0, 0.7, 0.1, r) }},
			{"private", func(r *rand.Rand) (*sampling.Crawl, error) {
				return sampling.PrivateAwareWalk(sampling.NewPrivateAccess(access, private), 0, 0.1, r)
			}},
		}
		for ci, cr := range crawlers {
			c, err := cr.crawl(rng(uint64(100*di + ci)))
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, cr.name, err)
			}
			out[ds.Name+"/"+cr.name] = c
			out[ds.Name+"/"+cr.name+"/perturbed"] = perturbCrawl(c)
			out[ds.Name+"/"+cr.name+"/phantom"] = phantomCrawl(c)
		}
	}
	return out
}

// TestLabelingMatchesFrozenReference holds BuildSubgraph and NewWalk, which
// now read the crawl's one dense labeling, to their frozen map-based
// predecessors: the same relabeled nodes and subgraph bytes, the same walk
// indexing, multiplicities and estimate bits.
func TestLabelingMatchesFrozenReference(t *testing.T) {
	crawls := labelRefCrawls(t)
	names := make([]string, 0, len(crawls))
	for name := range crawls {
		names = append(names, name)
	}
	sort.Strings(names)
	walks := 0
	for _, name := range names {
		c := crawls[name]
		rc := newRefCrawl(c)
		got, want := sampling.BuildSubgraph(c), refBuildSubgraph(rc)
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || got.NumQueried != want.NumQueried {
			t.Fatalf("%s: subgraph nodes differ (%d/%d queried of %d/%d)",
				name, got.NumQueried, want.NumQueried, len(got.Nodes), len(want.Nodes))
		}
		gb, err := graph.AppendBinary(nil, got.Graph)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := graph.AppendBinary(nil, want.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: subgraph bytes differ (m=%d, reference m=%d)", name, got.Graph.M(), want.Graph.M())
		}

		w, err := NewWalk(c)
		rw, rerr := refNewWalk(rc)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s: NewWalk error %v, reference %v", name, err, rerr)
		}
		if err != nil {
			continue
		}
		walks++
		if !reflect.DeepEqual(w.Deg, rw.Deg) || !reflect.DeepEqual(w.deg, rw.deg) ||
			!reflect.DeepEqual(w.pos, rw.pos) || !reflect.DeepEqual(w.steps, rw.steps) {
			t.Fatalf("%s: walk indexing differs from the reference", name)
		}
		for i := 1; i+1 < w.R(); i++ {
			a := w.multiplicity(w.steps[i-1], w.steps[i+1])
			if ra := refMultiplicity(rc.Neighbors, w.Seq[i-1], w.Seq[i+1]); a != ra {
				t.Fatalf("%s: step %d multiplicity %d, reference %d", name, i, a, ra)
			}
		}
		hg, hw := sha256.New(), sha256.New()
		hashEstimates(hg, w)
		hashEstimates(hw, rw)
		if !bytes.Equal(hg.Sum(nil), hw.Sum(nil)) {
			t.Fatalf("%s: estimate bits differ from the reference", name)
		}
	}
	if walks < 3*3*5 {
		t.Fatalf("only %d of %d crawls reached the estimators", walks, len(names))
	}
}

// TestWalkAndSubgraphShareLabeling shows the crawl is labeled once per
// crawl: the walk's dense rows and steps and the subgraph's node table are
// the crawl's own backing arrays, and asking for them again allocates
// nothing.
func TestWalkAndSubgraphShareLabeling(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.4, rng(61))
	c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.2, rng(62))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalk(c)
	if err != nil {
		t.Fatal(err)
	}
	sub := sampling.BuildSubgraph(c)
	off, adj := c.DenseRows()
	if &w.off[0] != &off[0] || &w.adj[0] != &adj[0] || &w.steps[0] != &c.DenseWalk()[0] {
		t.Error("the walk holds dense rows or steps of its own, not the crawl's")
	}
	if &sub.Nodes[0] != &c.Nodes()[0] {
		t.Error("the subgraph holds a node table of its own, not the crawl's")
	}
	if n := testing.AllocsPerRun(10, func() {
		c.DenseRows()
		c.DenseWalk()
		c.Nodes()
	}); n != 0 {
		t.Errorf("reading the labeling again allocates %v times", n)
	}
}
