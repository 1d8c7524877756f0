package sampling_test

import (
	"bytes"
	"slices"
	"testing"

	"sgr/internal/estimate"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// FuzzReadCrawlJSON feeds arbitrary bytes — seeded with a valid crawl and
// the malformations the validator must reject — through the crawl-file
// decoder. The decoder may error but must never panic, and anything it
// accepts must uphold the Crawl invariants and survive a write/read
// round trip. Every accepted crawl's dense labeling must map back to it
// entry for entry, and the crawl is built into a subgraph whose edges must be exactly the distinct unordered pairs of its
// neighbor lists, and a walk of at least 3 steps runs through the
// estimators; none of it may panic.
func FuzzReadCrawlJSON(f *testing.F) {
	f.Add([]byte(`{"version":1,"queried":[3,1],"neighbors":[[1],[3]],"walk":[3,1,3]}`))
	f.Add([]byte(`{"version":2,"queried":[],"neighbors":[]}`))                 // unknown version
	f.Add([]byte(`{"version":1,"queried":[1,2],"neighbors":[[2]]}`))           // length mismatch
	f.Add([]byte(`{"version":1,"queried":[1,1],"neighbors":[[2],[2]]}`))       // duplicate node
	f.Add([]byte(`{"version":1,"queried":[1],"neighbors":[[2]],"walk":[9]}`))  // walk off-list
	f.Add([]byte(`{"version":1,"queried":[-4],"neighbors":[[2]]}`))            // negative id
	f.Add([]byte(`{"version":1,"queried":[4],"neighbors":[[-2]]}`))            // negative neighbor
	f.Add([]byte(`{"version":1,"queried":[4],"neighbors":[[2]],"walk":[4`))    // truncated
	f.Add([]byte(`{"version":1,"queried":"nope","neighbors":[[2]]}`))          // type confusion
	f.Add([]byte(`{"version":1,"queried":[0],"neighbors":[null],"walk":[0]}`)) // null list
	f.Add([]byte(`{"version":1,"queried":[1e9],"neighbors":[[2]],"walk":[]}`)) // huge id
	f.Add([]byte(``))
	f.Add([]byte(`{"version":1,"queried":[0,1,2],"neighbors":[[1,2],[2],[0,1]],"walk":[0,1,2,0]}`)) // asymmetric lists
	f.Add([]byte(`{"version":1,"queried":[5,7],"neighbors":[[7,7,9],[5,5,9]],"walk":[5,7,5,7]}`))   // repeated entries
	f.Add([]byte(`{"version":1,"queried":[4,6],"neighbors":[[4,4,6],[4]],"walk":[4,6,4]}`))         // self-loop

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := sampling.ReadCrawlJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted crawls must be internally consistent...
		queried := c.Queried()
		if len(queried) != len(c.Lists()) {
			t.Fatalf("accepted crawl with %d queried but %d neighbor lists", len(queried), len(c.Lists()))
		}
		isQueried := make(map[int]bool, len(queried))
		for _, u := range queried {
			if u < 0 {
				t.Fatalf("accepted negative node id %d", u)
			}
			isQueried[u] = true
		}
		for _, u := range c.Walk() {
			if !isQueried[u] {
				t.Fatalf("accepted walk through unqueried node %d", u)
			}
		}
		// ...and round-trip: what we write back must read identically.
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("re-serializing accepted crawl: %v", err)
		}
		c2, err := sampling.ReadCrawlJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading serialized crawl: %v", err)
		}
		if len(c2.Queried()) != len(c.Queried()) || len(c2.Walk()) != len(c.Walk()) {
			t.Fatalf("round trip changed shape: %d/%d queried, %d/%d walk",
				len(c2.Queried()), len(c.Queried()), len(c2.Walk()), len(c.Walk()))
		}
		var buf2 bytes.Buffer
		if err := c2.WriteJSON(&buf2); err != nil || !bytes.Equal(buf2.Bytes(), buf.Bytes()) {
			t.Fatalf("second write differs from the first (err %v)", err)
		}

		// The dense labeling: Queried in order, then the visible nodes
		// strictly ascending and disjoint from Queried; every dense row and
		// the dense walk map back to the crawl entry for entry.
		nodes := c.Nodes()
		if len(nodes) < len(queried) || !slices.Equal(nodes[:len(queried)], queried) {
			t.Fatalf("node table %v does not start with Queried %v", nodes, queried)
		}
		for i, v := range nodes[len(queried):] {
			if isQueried[v] {
				t.Fatalf("visible node %d is also queried", v)
			}
			if i > 0 && v <= nodes[len(queried)+i-1] {
				t.Fatalf("visible nodes %v not strictly ascending", nodes[len(queried):])
			}
		}
		off, adj := c.DenseRows()
		if len(off) != len(queried)+1 || int(off[len(queried)]) != len(adj) {
			t.Fatalf("%d row offsets ending at %d for %d queried and %d entries",
				len(off), off[len(off)-1], len(queried), len(adj))
		}
		for i, nb := range c.Lists() {
			row := adj[off[i]:off[i+1]]
			if len(row) != len(nb) {
				t.Fatalf("row %d has %d entries, its list %d", i, len(row), len(nb))
			}
			for j, d := range row {
				if nodes[d] != nb[j] {
					t.Fatalf("row %d entry %d maps to %d, list names %d", i, j, nodes[d], nb[j])
				}
			}
		}
		dw := c.DenseWalk()
		if len(dw) != len(c.Walk()) {
			t.Fatalf("dense walk has %d steps, walk %d", len(dw), len(c.Walk()))
		}
		for i, d := range dw {
			if int(d) >= len(queried) || nodes[d] != c.Walk()[i] {
				t.Fatalf("dense walk step %d is %d, walk visits %d", i, d, c.Walk()[i])
			}
		}

		sub := sampling.BuildSubgraph(c)
		want := make(map[graph.Edge]bool)
		for i, u := range queried {
			for _, v := range c.Lists()[i] {
				want[graph.Edge{U: u, V: v}.Canon()] = true
			}
		}
		for _, e := range sub.Graph.Edges() {
			orig := graph.Edge{U: sub.Nodes[e.U], V: sub.Nodes[e.V]}.Canon()
			if !want[orig] {
				t.Fatalf("subgraph edge %v is not a distinct listed pair", orig)
			}
			delete(want, orig)
		}
		if len(want) != 0 {
			t.Fatalf("subgraph misses %d listed pairs", len(want))
		}
		if len(c.Walk()) >= 3 {
			if w, err := estimate.NewWalk(c); err == nil {
				estimate.All(w)
			}
		}
	})
}
