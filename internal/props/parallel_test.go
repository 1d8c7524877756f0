package props

import (
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// serialNeighborConnectivity is the pre-parallel reference implementation.
func serialNeighborConnectivity(g *graph.Graph) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		k := g.Degree(u)
		cnt[k]++
		if k == 0 {
			continue
		}
		s := 0.0
		for _, v := range g.Neighbors(u) {
			s += float64(g.Degree(v))
		}
		sum[k] += s / float64(k)
	}
	out := make(map[int]float64, len(cnt))
	for k, c := range cnt {
		out[k] = sum[k] / float64(c)
	}
	return out
}

// serialESP is the pre-parallel reference implementation.
func serialESP(g *graph.Graph) map[int]float64 {
	mult := make([]map[int]int, g.N())
	for u := 0; u < g.N(); u++ {
		mult[u] = g.NeighborMultiplicities(u)
	}
	counts := make(map[int]int)
	total := 0
	for u := 0; u < g.N(); u++ {
		for v, a := range mult[u] {
			if v < u {
				continue
			}
			mu, mv := mult[u], mult[v]
			if len(mu) > len(mv) {
				mu, mv = mv, mu
			}
			sp := 0
			for w, cu := range mu {
				if w == u || w == v {
					continue
				}
				if cv := mv[w]; cv > 0 {
					sp += cu * cv
				}
			}
			counts[sp] += a
			total += a
		}
	}
	out := make(map[int]float64, len(counts))
	if total == 0 {
		return out
	}
	for s, c := range counts {
		out[s] = float64(c) / float64(total)
	}
	return out
}

func eqMaps(t *testing.T, what string, got, want map[int]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s[%d] = %v, want %v", what, k, g, w)
		}
	}
}

// TestParallelBasicPropsMatchSerial pins the CSR per-node property loops
// to their adjacency-list references: neighbor connectivity's floats and
// the shared-partner histogram must be bit-identical, not merely close.
func TestParallelBasicPropsMatchSerial(t *testing.T) {
	graphs := []*graph.Graph{
		gen.HolmeKim(900, 4, 0.5, rand.New(rand.NewPCG(3, 4))),
		gen.ErdosRenyiGNM(400, 1600, rand.New(rand.NewPCG(5, 6))),
		graph.New(0),
	}
	for _, g := range graphs {
		eqMaps(t, "NeighborConnectivity", NeighborConnectivity(g), serialNeighborConnectivity(g))
		eqMaps(t, "EdgewiseSharedPartners", EdgewiseSharedPartners(g), serialESP(g))
	}
}

// TestDissimilarityWorkerInvariance checks the parallel distance-profile
// BFS: explicit worker counts must not change the D-measure bits.
func TestDissimilarityWorkerInvariance(t *testing.T) {
	a := gen.HolmeKim(300, 3, 0.4, rand.New(rand.NewPCG(1, 2)))
	b := gen.ErdosRenyiGNM(300, 1400, rand.New(rand.NewPCG(3, 4)))
	ref := Dissimilarity(a, b, Options{Workers: 1})
	for _, w := range []int{2, 4, 8} {
		if got := Dissimilarity(a, b, Options{Workers: w}); got != ref {
			t.Errorf("workers=%d: D = %v, want %v", w, got, ref)
		}
	}
}
