package dkseries

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/props"
)

// diffInput builds one randomized rewiring problem: a clustered source
// graph split into fixed and candidate edge sets plus a noisy clustering
// target, exercising multi-edges via duplicated candidates.
func diffInput(seed uint64, n int) (fixed, cands []graph.Edge, target map[int]float64) {
	r := rand.New(rand.NewPCG(seed, seed^0x5eed))
	src := gen.HolmeKim(n, 2+int(seed%3), 0.4, r)
	edges := src.Edges()
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	cut := len(edges) / 3
	fixed = edges[:cut]
	cands = append([]graph.Edge(nil), edges[cut:]...)
	// A few parallel candidate edges to exercise multiplicities > 1.
	for i := 0; i < 5 && i < len(cands); i++ {
		cands = append(cands, cands[i*7%len(cands)])
	}
	// Scale the target in ascending degree order: map range order would
	// hand each degree a different draw on every run.
	target = props.DegreeClustering(src)
	ks := make([]int, 0, len(target))
	for k := range target {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	for _, k := range ks {
		target[k] *= 0.5 + r.Float64()
	}
	return fixed, cands, target
}

// TestRewireDifferentialAdjsetVsMap is the guard behind the adjset swap:
// on randomized fixed-seed inputs, the flat-adjacency rewireSerialRef must
// produce byte-identical RewireStats (including the float64 L1 distances),
// the same output graph, and the same final candidate endpoints as the
// frozen map-based reference engine.
func TestRewireDifferentialAdjsetVsMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		fixed, cands, target := diffInput(seed, 120+int(seed)*30)
		for _, forbid := range []bool{false, true} {
			candsA := append([]graph.Edge(nil), cands...)
			candsB := append([]graph.Edge(nil), cands...)
			optsA := rewireOptions{TargetClustering: target, RC: 6,
				Rand: rand.New(rand.NewPCG(seed, 99)), ForbidDegenerate: forbid}
			optsB := rewireOptions{TargetClustering: target, RC: 6,
				Rand: rand.New(rand.NewPCG(seed, 99)), ForbidDegenerate: forbid}
			n := 0
			for _, e := range append(append([]graph.Edge(nil), fixed...), cands...) {
				if e.U >= n {
					n = e.U + 1
				}
				if e.V >= n {
					n = e.V + 1
				}
			}
			gA, stA := rewireSerialRef(n, fixed, candsA, optsA)
			gB, stB := rewireMapRef(n, fixed, candsB, optsB)
			if stA != stB {
				t.Fatalf("seed %d forbid=%v: stats diverge: adjset %+v map %+v",
					seed, forbid, stA, stB)
			}
			if math.Float64bits(stA.InitialL1) != math.Float64bits(stB.InitialL1) ||
				math.Float64bits(stA.FinalL1) != math.Float64bits(stB.FinalL1) {
				t.Fatalf("seed %d forbid=%v: L1 bits diverge", seed, forbid)
			}
			if !graph.Equal(gA, gB) {
				t.Fatalf("seed %d forbid=%v: output graphs diverge", seed, forbid)
			}
			for i := range candsA {
				if candsA[i] != candsB[i] {
					t.Fatalf("seed %d forbid=%v: candidate %d endpoints diverge: %v vs %v",
						seed, forbid, i, candsA[i], candsB[i])
				}
			}
			if stA.Accepted == 0 {
				t.Errorf("seed %d forbid=%v: rewiring accepted nothing — weak differential input", seed, forbid)
			}
		}
	}
}
