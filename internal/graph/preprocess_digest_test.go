package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"testing"
)

// TestPreprocessDigest pins the bytes of Simplify, InducedSubgraph (over a
// shuffled node subset, loops included) and Preprocess on a random
// multigraph with parallel edges and self-loops: the cases a dataset
// stand-in, being simple already, does not reach.
func TestPreprocessDigest(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 7))
	g := New(400)
	for i := 0; i < 1500; i++ {
		u := r.IntN(400)
		v := r.IntN(400)
		if i%9 == 0 {
			v = u
		}
		g.AddEdge(u, v)
		if i%5 == 0 {
			g.AddEdge(v, u)
		}
	}
	subset := r.Perm(400)[:250]
	induced, _ := g.InducedSubgraph(subset)
	clean, _ := Preprocess(g)
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"simplify", g.Simplify(), "ec68fdb3bd9dfdee386c9fb36a8e895671ef94605e8416dda9d24e20ab1568fb"},
		{"induced", induced, "4ccd2bbf95e7257e19cddc9f57d95a417bfedf4b0bc936b0222a2aa385d9b633"},
		{"preprocess", clean, "46052e77503349e1337979551e051b4668fbd744eba6637c2113b5cd50b0c6f4"},
	} {
		buf, err := AppendBinary(nil, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s (n=%d, m=%d): digest %s, want %s", tc.name, tc.g.N(), tc.g.M(), got, tc.want)
		}
	}
}
