package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sgr/internal/graph"
)

// TestDatasetBuildDigest pins the binary bytes of every stand-in at a
// small scale and fixed seed: generation, simplification and the largest
// component's relabeling together, so a rewrite of any of them that moves
// an edge or a node ID fails here.
func TestDatasetBuildDigest(t *testing.T) {
	want := map[string]string{
		"anybeat":    "b7351ef19cf9cceb037c98a83daed4dfa1e90bf3c3545c839454fa3476acc4e7",
		"brightkite": "fb7966d9181a180173f9f26e023355f512bb0d1a6147951dd89016f74a1d0ecb",
		"epinions":   "8609b76d55518905a75f0c462d361af8b57249e4f4920f3fd0611d91404a8000",
		"slashdot":   "edbe74f164fc2e31903d2dc95fa7318186b0cd51a9fc648fe18774bb5d379809",
		"gowalla":    "7356c288fa4508a734dd1683b801ac66f9c8812854add70fd3a3be13dd6a4077",
		"livemocha":  "9d85d67c04625190c2338a7f7a87c48145bd3e653b11149ce73bbfa9d72f8040",
		"youtube":    "adc7fe8100ab2cd0e8d7a006d3e712b6cef2825e75cbe25d49830831f537a49d",
	}
	for i, d := range Datasets {
		g := d.Build(0.01, rng(uint64(70+i)))
		buf, err := graph.AppendBinary(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want[d.Name] {
			t.Errorf("%s (n=%d, m=%d): digest %s, want %s", d.Name, g.N(), g.M(), got, want[d.Name])
		}
	}
}
