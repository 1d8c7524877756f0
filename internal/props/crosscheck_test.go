package props

import (
	"math"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// naiveDistances computes all-pairs shortest path lengths by Floyd-Warshall
// over the simple projection of g (multiplicities do not affect distances).
func naiveDistances(g *graph.Graph) [][]int {
	n := g.N()
	const inf = 1 << 29
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := range g.NeighborMultiplicities(u) {
			d[u][v] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] >= inf {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// naiveBetweenness computes the ordered-pair betweenness by explicit
// shortest-path counting with multiplicity-weighted sigma, O(n^3)-ish.
func naiveBetweenness(g *graph.Graph) []float64 {
	n := g.N()
	dist := naiveDistances(g)
	// sigma[s][t]: number of shortest paths (with edge multiplicities).
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		sigma[s] = make([]float64, n)
		sigma[s][s] = 1
	}
	// Dynamic program over increasing distance.
	maxD := 0
	for i := range dist {
		for j := range dist[i] {
			if dist[i][j] < 1<<29 && dist[i][j] > maxD {
				maxD = dist[i][j]
			}
		}
	}
	mult := make([]map[int]int, n)
	for u := 0; u < n; u++ {
		mult[u] = g.NeighborMultiplicities(u)
	}
	for l := 1; l <= maxD; l++ {
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if dist[s][t] != l {
					continue
				}
				var paths float64
				//sgr:nondet-ok reference engine: sigma's float-order tail is absorbed by the cross-check tolerance
				for p, m := range mult[t] {
					if dist[s][p] == l-1 {
						paths += sigma[s][p] * float64(m)
					}
				}
				sigma[s][t] = paths
			}
		}
	}
	bc := make([]float64, n)
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			if s == v {
				continue
			}
			for t := 0; t < n; t++ {
				if t == s || t == v {
					continue
				}
				if dist[s][t] < 1<<29 && dist[s][v]+dist[v][t] == dist[s][t] && sigma[s][t] > 0 {
					bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return bc
}

func TestPathsMatchFloydWarshall(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		g := gen.HolmeKim(40+10*trial, 2, 0.5, rng(uint64(20+trial)))
		d := naiveDistances(g)
		var sum, cnt int
		maxD := 0
		hist := map[int]int{}
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if i == j {
					continue
				}
				sum += d[i][j]
				cnt++
				hist[d[i][j]]++
				if d[i][j] > maxD {
					maxD = d[i][j]
				}
			}
		}
		res := Compute(g, Options{})
		wantAvg := float64(sum) / float64(cnt)
		if math.Abs(res.AvgPathLen-wantAvg) > 1e-9 {
			t.Fatalf("trial %d: lbar %v want %v", trial, res.AvgPathLen, wantAvg)
		}
		if res.Diameter != maxD {
			t.Fatalf("trial %d: diameter %d want %d", trial, res.Diameter, maxD)
		}
		for l, c := range hist {
			want := float64(c) / float64(cnt)
			if math.Abs(res.PathLenDist[l]-want) > 1e-9 {
				t.Fatalf("trial %d: P(%d) = %v want %v", trial, l, res.PathLenDist[l], want)
			}
		}
	}
}

func TestBetweennessMatchesNaive(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := gen.HolmeKim(30+5*trial, 2, 0.4, rng(uint64(40+trial)))
		want := naiveBetweenness(g)
		lcc, _ := g.LargestComponent()
		if lcc.N() != g.N() {
			t.Fatal("test graph must be connected")
		}
		c := newCSR(g)
		sources := make([]int32, g.N())
		for i := range sources {
			sources[i] = int32(i)
		}
		st := computePaths(c, sources, 1, 4, 0)
		for v := range want {
			if math.Abs(st.Betweenness[v]-want[v]) > 1e-6*(1+want[v]) {
				t.Fatalf("trial %d: bc[%d] = %v want %v", trial, v, st.Betweenness[v], want[v])
			}
		}
	}
}

func TestBetweennessMatchesNaiveOnMultigraph(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 2)
	g.AddEdge(2, 4)
	want := naiveBetweenness(g)
	c := newCSR(g)
	sources := []int32{0, 1, 2, 3, 4}
	st := computePaths(c, sources, 1, 2, 0)
	for v := range want {
		if math.Abs(st.Betweenness[v]-want[v]) > 1e-9 {
			t.Fatalf("bc[%d] = %v want %v (all got=%v want=%v)", v, st.Betweenness[v], want[v], st.Betweenness, want)
		}
	}
}
