package sampling_test

import (
	"bytes"
	"testing"

	"sgr/internal/estimate"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// FuzzReadCrawlJSON feeds arbitrary bytes — seeded with a valid crawl and
// the malformations the validator must reject — through the crawl-file
// decoder. The decoder may error but must never panic, and anything it
// accepts must uphold the Crawl invariants and survive a write/read
// round trip. Every accepted crawl is also labeled and built into a
// subgraph whose edges must be exactly the distinct unordered pairs of its
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
		if len(c.Queried) != len(c.Neighbors) {
			t.Fatalf("accepted crawl with %d queried but %d neighbor lists", len(c.Queried), len(c.Neighbors))
		}
		for _, u := range c.Queried {
			if u < 0 {
				t.Fatalf("accepted negative node id %d", u)
			}
			if _, ok := c.Neighbors[u]; !ok {
				t.Fatalf("queried node %d has no neighbor list", u)
			}
		}
		for _, u := range c.Walk {
			if _, ok := c.Neighbors[u]; !ok {
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
		if len(c2.Queried) != len(c.Queried) || len(c2.Walk) != len(c.Walk) {
			t.Fatalf("round trip changed shape: %d/%d queried, %d/%d walk",
				len(c2.Queried), len(c.Queried), len(c2.Walk), len(c.Walk))
		}

		l := sampling.Label(c)
		if l.NumQueried != len(c.Queried) || len(l.Walk) != len(c.Walk) {
			t.Fatalf("labeling has %d queried and %d walk steps, crawl %d and %d",
				l.NumQueried, len(l.Walk), len(c.Queried), len(c.Walk))
		}
		sub := sampling.BuildSubgraph(c)
		want := make(map[graph.Edge]bool)
		for _, u := range c.Queried {
			for _, v := range c.Neighbors[u] {
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
		if len(c.Walk) >= 3 {
			if w, err := estimate.NewWalk(c); err == nil {
				estimate.All(w)
			}
		}
	})
}
