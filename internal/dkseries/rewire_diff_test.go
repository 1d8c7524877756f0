package dkseries

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// TestRewireSerialRefDigest pins rewireSerialRef's bytes (output graph,
// final candidate endpoints, stats with their float64 L1 bits) on the
// randomized fixed-seed inputs of diffInput, with and without
// ForbidDegenerate. The digests were recorded while a frozen map-based
// engine still held the reference to the same bytes, byte for byte.
func TestRewireSerialRefDigest(t *testing.T) {
	for _, tc := range []struct {
		forbid bool
		want   string
	}{
		{false, "b30a63755562e3e15e88e71b37213653d511bed65d5d1f6e720a6fdbdfc0cc10"},
		{true, "373c657f092fcf04dbdd283674eb784c7a87ce5600ab7ddb8aa68ba8e1f1ec58"},
	} {
		h := sha256.New()
		for seed := uint64(1); seed <= 8; seed++ {
			fixed, cands, target := diffInput(seed, 120+int(seed)*30)
			g, st := rewireSerialRef(nodeCount(fixed, cands), fixed, cands, rewireOptions{
				TargetClustering: target, RC: 6,
				Rand: rand.New(rand.NewPCG(seed, 99)), ForbidDegenerate: tc.forbid})
			if st.Accepted == 0 {
				t.Errorf("seed %d forbid=%v: rewiring accepted nothing — weak input", seed, tc.forbid)
			}
			fmt.Fprintln(h, rewireDigest(g, cands, st))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("forbid=%v: digest %s, want %s", tc.forbid, got, tc.want)
		}
	}
}
