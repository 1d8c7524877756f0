package props

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// goldenComputeDigest pins SHA-256(json.Marshal(Compute(g, opts))) for
// goldenGraph, recorded at one worker before the successor-list Brandes
// kernel replaced the arc-rescanning one. These are the bytes restored
// serves and caches from /v1/jobs/{id}/props, so any drift in any
// property — the path kernel included — fails here even if a frozen
// reference drifts with it. Betweenness merges in source order, so every
// worker count must give this one digest.
const goldenComputeDigest = "028bd1b7a357c5f9063bf5deca22c16aa7a871a8f406545bc15f96a4905cbdcf"

// goldenGraph is the anybeat stand-in at scale 0.05, fixed seed.
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("anybeat")
	if err != nil {
		t.Fatal(err)
	}
	return d.Build(0.05, rng(14))
}

func TestComputeGoldenDigest(t *testing.T) {
	g := goldenGraph(t)
	for _, w := range []int{1, 2, 3, 8} {
		b, err := json.Marshal(Compute(g, Options{Workers: w}))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != goldenComputeDigest {
			t.Errorf("workers=%d: Compute digest = %s, want %s", w, got, goldenComputeDigest)
		}
	}
}
