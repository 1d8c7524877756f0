package dkseries

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// TestDK25Digest pins DK25's bytes end to end: the SHA-256 of the output
// graph's binary encoding followed by every RewireStats field (the L1
// distances by their float bits), on two dataset stand-ins at two seeds.
// It covers what the engine-level digests do not: the 2K build feeding
// the rewiring, and the exact c(k) target DK25 computes from its input.
func TestDK25Digest(t *testing.T) {
	cases := []struct {
		dataset string
		scale   float64
		seed    uint64
		want    string
	}{
		{"anybeat", 0.05, 1, "dc9e65d00066286d45139541482f62aff6122472d99fbd78bc2080407a17f100"},
		{"anybeat", 0.05, 2, "a1e7afd74686fcfba4d1b1b7be7ba9bf5279e38daf2f6f194d1357fc2c3821ab"},
		{"brightkite", 0.01, 1, "e2051c0d76ad6b7d6e4799e2943b135de676952a4c0387ef8bc15689234ee925"},
		{"brightkite", 0.01, 2, "b3037a8da0ef7668398caeeed75e07605c02eac4442e0bfd4f9727809a984354"},
	}
	for _, c := range cases {
		d, err := gen.ByName(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		src := d.Build(c.scale, rand.New(rand.NewPCG(7, 7^0x5bd1e995)))
		out, st, err := DK25(src, 5, rng(c.seed))
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.dataset, c.seed, err)
		}
		if st.Accepted == 0 {
			t.Fatalf("%s seed %d: no swap accepted, the digest would not cover the rewiring", c.dataset, c.seed)
		}
		if got := dk25Digest(t, out, st); got != c.want {
			t.Errorf("%s seed %d: digest %s, want %s", c.dataset, c.seed, got, c.want)
		}
	}
}

func dk25Digest(t *testing.T, g *graph.Graph, st RewireStats) string {
	t.Helper()
	buf, err := graph.AppendBinary(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{st.Attempts, st.Accepted, st.Rounds, st.Recomputed} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.InitialL1))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.FinalL1))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
