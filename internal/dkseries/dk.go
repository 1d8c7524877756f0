package dkseries

import (
	"fmt"
	"math/rand/v2"

	"sgr/internal/graph"
	"sgr/internal/props"
)

// DK0 generates a 0K-graph of g: a random multigraph preserving only the
// number of nodes and edges (hence the average degree).
func DK0(g *graph.Graph, r *rand.Rand) *graph.Graph {
	out := graph.New(g.N())
	for i := 0; i < g.M(); i++ {
		out.AddEdge(r.IntN(g.N()), r.IntN(g.N()))
	}
	return out
}

// DK1 generates a 1K-graph of g: a configuration-model multigraph with
// exactly g's degree sequence.
func DK1(g *graph.Graph, r *rand.Rand) *graph.Graph {
	stubs := make([]int, 0, 2*g.M())
	for u := 0; u < g.N(); u++ {
		for i := 0; i < g.Degree(u); i++ {
			stubs = append(stubs, u)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	out := graph.New(g.N())
	for i := 0; i+1 < len(stubs); i += 2 {
		out.AddEdge(stubs[i], stubs[i+1])
	}
	return out
}

// DK2 generates a 2K-graph of g: a random graph exactly preserving g's
// degree vector and joint degree matrix, built from an empty base. Isolated
// nodes in g are not supported (the paper's graphs are connected).
func DK2(g *graph.Graph, r *rand.Rand) (*graph.Graph, error) {
	dv, err := FromGraph(g)
	if err != nil {
		return nil, err
	}
	jdm := JDMFromGraph(g)
	res, err := Build(graph.New(0), nil, dv, jdm, r)
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// DK25 generates a 2.5K-graph of g: a 2K-graph rewired toward g's true
// degree-dependent clustering coefficient with attempt coefficient rc,
// which must pass CheckRC.
func DK25(g *graph.Graph, rc float64, r *rand.Rand) (*graph.Graph, RewireStats, error) {
	if err := CheckRC(rc); err != nil {
		return nil, RewireStats{}, fmt.Errorf("dkseries: %w", err)
	}
	dv, err := FromGraph(g)
	if err != nil {
		return nil, RewireStats{}, err
	}
	jdm := JDMFromGraph(g)
	res, err := Build(graph.New(0), nil, dv, jdm, r)
	if err != nil {
		return nil, RewireStats{}, err
	}
	seed1, seed2 := r.Uint64(), r.Uint64()
	out, stats := RewireSharded(g.N(), nil, res.Added, ShardedRewireOptions{
		TargetClustering: props.DegreeClustering(g),
		RC:               rc,
		Seed1:            seed1,
		Seed2:            seed2,
	})
	return out, stats, nil
}
