package graph

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// addEdgeGraph is FromEdgeLists' contract: New(n), then AddEdge for every
// edge of every list, in order.
func addEdgeGraph(n int, lists [][]Edge) *Graph {
	g := New(n)
	for _, es := range lists {
		for _, e := range es {
			g.AddEdge(e.U, e.V)
		}
	}
	return g
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// csrEqual reports whether two snapshots hold the same views, array for
// array.
func csrEqual(a, b *CSR) bool {
	return a.n == b.n && a.m == b.m && a.maxDeg == b.maxDeg &&
		slices.Equal(a.endOff, b.endOff) && slices.Equal(a.endpoints, b.endpoints) &&
		slices.Equal(a.off, b.off) && slices.Equal(a.nbr, b.nbr) &&
		slices.Equal(a.mult, b.mult) && slices.Equal(a.loops, b.loops)
}

// checkFromEdgeLists fails t unless FromEdgeLists and CSRFromEdgeLists
// equal the AddEdge sequence on (n, lists): the same rows in order, M,
// encoding bytes and both CSR views, or the same panic.
func checkFromEdgeLists(t *testing.T, n int, lists [][]Edge) {
	t.Helper()
	var want, got *Graph
	var gotCSR *CSR
	wantPanic := panicOf(func() { want = addEdgeGraph(n, lists) })
	gotPanic := panicOf(func() { got = FromEdgeLists(n, lists...) })
	csrPanic := panicOf(func() { gotCSR = CSRFromEdgeLists(n, lists...) })
	if wantPanic != nil || gotPanic != nil || csrPanic != nil {
		w := fmt.Sprint(wantPanic)
		if wantPanic == nil || fmt.Sprint(gotPanic) != w || fmt.Sprint(csrPanic) != w {
			t.Fatalf("n=%d %v: panics: AddEdge %v, FromEdgeLists %v, CSRFromEdgeLists %v",
				n, lists, wantPanic, gotPanic, csrPanic)
		}
		return
	}
	if got.N() != want.N() || got.M() != want.M() || !Equal(got, want) {
		t.Fatalf("n=%d %v: got n=%d m=%d, want n=%d m=%d", n, lists, got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("n=%d %v: row %d = %v, want %v", n, lists, u, got.Neighbors(u), want.Neighbors(u))
		}
	}
	gb, err := AppendBinary(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := AppendBinary(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("n=%d %v: encodings differ", n, lists)
	}
	if !csrEqual(got.CSR(), want.CSR()) || !csrEqual(gotCSR, want.CSR()) {
		t.Fatalf("n=%d %v: CSR views differ", n, lists)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgeListsMatchesAddEdge(t *testing.T) {
	cases := []struct {
		n     int
		lists [][]Edge
	}{
		{0, nil},
		{0, [][]Edge{nil, {}}},
		{3, nil},                                 // isolated nodes only
		{4, [][]Edge{{{0, 1}, {1, 2}}, nil, {}}}, // empty lists, isolated node 3
		{3, [][]Edge{{{1, 1}, {0, 1}, {1, 1}}}},  // self-loops around an edge
		{3, [][]Edge{{{2, 0}, {0, 2}}, {{0, 2}, {2, 2}, {2, 0}}}},                 // multi-edges across lists
		{6, [][]Edge{{{5, 0}, {3, 4}, {0, 5}}, {{4, 3}, {1, 1}}, nil, {{0, 1}}}},  // mixed, node 2 isolated
		{5, [][]Edge{{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, {{4, 0}, {3, 0}, {2, 0}}}}, // row order follows edge order
		{0, [][]Edge{{{0, 0}}}}, // out of range: panics
		{2, [][]Edge{{{0, 1}}, {{1, 2}}}},
		{2, [][]Edge{{{-1, 0}}}},
	}
	for _, c := range cases {
		checkFromEdgeLists(t, c.n, c.lists)
	}
	if fmt.Sprint(panicOf(func() { FromEdgeLists(-1) })) != fmt.Sprint(panicOf(func() { New(-1) })) {
		t.Fatal("a negative node count must panic as New does")
	}
}

// TestFromEdgeListsRowsGrowApart checks that a row carved from the
// constructor's arena (graph 0) reallocates on AddEdge instead of writing
// into the next row, and the same for a decoded graph (graph 1), which
// carves its rows the same way.
func TestFromEdgeListsRowsGrowApart(t *testing.T) {
	built := FromEdgeLists(3, []Edge{{0, 1}, {1, 2}})
	buf, err := AppendBinary(nil, built)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*Graph{built, decoded} {
		g.AddEdge(0, 2)
		if err := g.Validate(); err != nil {
			t.Errorf("graph %d: after AddEdge: %v", i, err)
		}
		if got := g.Neighbors(1); !slices.Equal(got, []int{0, 2}) {
			t.Errorf("graph %d: row 1 = %v after AddEdge(0, 2), want [0 2]", i, got)
		}
	}
}

// FuzzFromEdgeLists holds the constructor to the AddEdge sequence on random
// node counts and edge lists: self-loops, multi-edges, empty lists,
// isolated nodes and, now and then, an endpoint one past the last node.
// Byte 255 starts a new list; every other byte pair is one edge, each
// endpoint reduced mod n+1.
func FuzzFromEdgeLists(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0, 255, 255, 0, 0})
	f.Add(uint8(5), []byte{0, 1, 1, 1, 255, 255, 2, 3, 3, 2, 4, 4, 0, 1})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		m := int(n) + 1
		lists := [][]Edge{nil}
		for i := 0; i < len(data); i++ {
			if data[i] == 255 {
				lists = append(lists, nil)
				continue
			}
			if i+1 < len(data) {
				last := len(lists) - 1
				lists[last] = append(lists[last], Edge{int(data[i]) % m, int(data[i+1]) % m})
				i++
			}
		}
		checkFromEdgeLists(t, int(n), lists)
	})
}
