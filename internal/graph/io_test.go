package graph

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 2

7 0
`
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("read: n=%d m=%d want 4,3", g.N(), g.M())
	}
	// labels follow first-appearance order: 0,1,2,7
	want := []int{0, 1, 2, 7}
	for i, w := range want {
		if labels[i] != w {
			t.Fatalf("labels: %v want %v", labels, want)
		}
	}
	if !g.HasEdge(3, 0) { // 7-0 relabeled
		t.Fatal("edge 7-0 missing after relabel")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("want error for one-field line")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("want error for non-integer")
	}
	for _, in := range []string{"# c\n-1 2\n2 -7\n", "0 1\n1 -7\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2: negative node label") {
			t.Errorf("%q: err = %v, want a line-2 negative-label error", in, err)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2)
	g.AddEdge(3, 4)
	g.AddEdge(3, 4)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d want %d,%d", g2.N(), g2.M(), g.N(), g.M())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 2 {
		t.Fatalf("loaded m=%d want 2", g2.M())
	}
	if _, _, err := LoadEdgeList(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("want error for missing file")
	}
}
