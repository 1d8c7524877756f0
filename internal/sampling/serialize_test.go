package sampling

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCrawlJSONRoundTrip(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalk(NewGraphAccess(g), 0, 0.1, rng(70))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCrawlJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Queried()) != len(c.Queried()) || len(back.Walk()) != len(c.Walk()) {
		t.Fatalf("round trip sizes: %d/%d queried, %d/%d walk",
			len(back.Queried()), len(c.Queried()), len(back.Walk()), len(c.Walk()))
	}
	for i, u := range c.Queried() {
		if back.Queried()[i] != u {
			t.Fatalf("queried[%d] mismatch", i)
		}
		a, b := c.Lists()[i], back.Lists()[i]
		if len(a) != len(b) {
			t.Fatalf("neighbor list of %d mismatch", u)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("neighbor %d of %d mismatch", j, u)
			}
		}
	}
	// The deserialized crawl must drive the same subgraph.
	s1, s2 := BuildSubgraph(c), BuildSubgraph(back)
	if s1.Graph.N() != s2.Graph.N() || s1.Graph.M() != s2.Graph.M() {
		t.Fatal("subgraphs differ after round trip")
	}
}

func TestCrawlJSONValidation(t *testing.T) {
	cases := []string{
		`{"version":99,"queried":[],"neighbors":[]}`,                 // bad version
		`{"version":1,"queried":[1],"neighbors":[]}`,                 // misaligned
		`{"version":1,"queried":[1,1],"neighbors":[[2],[2]]}`,        // duplicate
		`{"version":1,"queried":[1],"neighbors":[[2]],"walk":[1,2]}`, // walk unqueried
		`not json`, // garbage
	}
	for _, in := range cases {
		if _, err := ReadCrawlJSON(strings.NewReader(in)); err == nil {
			t.Errorf("want error for %q", in)
		}
	}
}

func TestSaveLoadCrawlFile(t *testing.T) {
	g := testGraph(t)
	c, err := RandomWalk(NewGraphAccess(g), 0, 0.05, rng(71))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.json")
	if err := SaveCrawl(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCrawl(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQueried() != c.NumQueried() {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadCrawl(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}
