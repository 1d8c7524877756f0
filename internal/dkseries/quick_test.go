package dkseries

import (
	mrand "math/rand"
	"testing"
	"testing/quick"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// TestQuickBuildRealizesRandomGraphTargets: targets extracted from any
// random connected-ish multigraph are realizable, and Build realizes them
// exactly.
func TestQuickBuildRealizesRandomGraphTargets(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		r := rng(uint64(seed))
		degrees := make([]int, n)
		total := 0
		for i := range degrees {
			degrees[i] = 1 + r.IntN(6)
			total += degrees[i]
		}
		if total%2 != 0 {
			degrees[0]++
		}
		src := gen.ConfigurationModel(degrees, r)
		dv, err := FromGraph(src)
		if err != nil {
			return true // isolated node (degree 0 impossible here, but safe)
		}
		jdm := JDMFromGraph(src)
		res, err := Build(nil, nil, dv, jdm, r)
		if err != nil {
			t.Logf("build failed: %v", err)
			return false
		}
		got, err := FromGraph(res.Graph)
		if err != nil {
			return false
		}
		if got.KMax() > dv.KMax() {
			return false
		}
		for k := 1; k <= dv.KMax(); k++ {
			have := 0
			if k <= got.KMax() {
				have = got[k]
			}
			if have != dv[k] {
				return false
			}
		}
		gj := JDMFromGraph(res.Graph)
		for ky, c := range jdm.Cells() {
			if gj.Get(ky[0], ky[1]) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: mrand.New(mrand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestQuickRewireInvariants: for any random multigraph and any split into
// fixed/candidate edges, rewiring preserves every node degree, the total
// edge count, the fixed edges, and never increases the clustering distance.
func TestQuickRewireInvariants(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		r := rng(uint64(seed))
		n := 30 + r.IntN(40)
		g := gen.HolmeKim(n, 2+r.IntN(2), r.Float64(), r)
		edges := g.Edges()
		split := int(splitRaw) % len(edges)
		fixed := edges[:split]
		cands := append([]graph.Edge(nil), edges[split:]...)
		target := map[int]float64{}
		for k := 2; k < 8; k++ {
			target[k] = r.Float64()
		}
		out, stats := RewireSharded(g.N(), fixed, cands, ShardedRewireOptions{
			TargetClustering: target,
			RC:               5,
			Seed1:            r.Uint64(),
			Seed2:            r.Uint64(),
		})
		if stats.FinalL1 > stats.InitialL1+1e-12 {
			return false
		}
		if out.M() != g.M() {
			return false
		}
		for u := 0; u < g.N(); u++ {
			if out.Degree(u) != g.Degree(u) {
				return false
			}
		}
		for _, e := range fixed {
			if !out.HasEdge(e.U, e.V) {
				return false
			}
		}
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: mrand.New(mrand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// TestRewireForbidDegenerateNeverAddsDegeneracy: with the simple-graph
// option, the number of loops plus parallel edges never grows.
func TestRewireForbidDegenerateNeverAddsDegeneracy(t *testing.T) {
	f := func(seed int64) bool {
		r := rng(uint64(seed))
		n := 30 + r.IntN(30)
		g := gen.HolmeKim(n, 3, 0.5, r)
		cands := g.Edges()
		before := g.CountMultiEdges()
		target := map[int]float64{3: 0.9, 4: 0.7, 5: 0.4}
		out, _ := RewireSharded(g.N(), nil, cands, ShardedRewireOptions{
			TargetClustering: target,
			RC:               10,
			Seed1:            r.Uint64(),
			Seed2:            r.Uint64(),
			ForbidDegenerate: true,
		})
		return out.CountMultiEdges() <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
