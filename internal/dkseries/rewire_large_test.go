package dkseries

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sgr/internal/graph"
)

// rewireDigest hashes everything RewireSharded returns: the output graph's
// edge list, the final candidate endpoints and every RewireStats field,
// the L1 distances by their float bits.
func rewireDigest(g *graph.Graph, cands []graph.Edge, st RewireStats) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for _, e := range g.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
	}
	for _, e := range cands {
		put(uint64(e.U))
		put(uint64(e.V))
	}
	for _, v := range []int{st.Attempts, st.Accepted, st.Rounds, st.Recomputed} {
		put(uint64(v))
	}
	put(math.Float64bits(st.InitialL1))
	put(math.Float64bits(st.FinalL1))
	return hex.EncodeToString(h.Sum(nil))
}

// TestRewireShardedLargeGraphDigest pins RewireSharded's bytes on a graph
// just past 2^15 nodes, with and without ForbidDegenerate, at two worker
// counts. The digests were recorded while graphs of this size still ran a
// separate merge-walk evaluator behind a Bloom fast-reject; the dense
// evaluator that now serves every size must reproduce them exactly.
func TestRewireShardedLargeGraphDigest(t *testing.T) {
	fixed, cands, target := shardedInput(1, 1<<15+700)
	n := nodeCount(fixed, cands)
	if n <= 1<<15 {
		t.Fatalf("input has %d nodes, want more than 2^15", n)
	}
	for _, tc := range []struct {
		forbid bool
		want   string
	}{
		{false, "781b3e989d84b35fbc668973d7cd93e7d99fe16c49853a50e636d424a4cbb4e2"},
		{true, "d11fa782751fbda69fa203a081365cae6404d2819339da0ce1767b41b1bd20ce"},
	} {
		for _, workers := range []int{1, 3} {
			cc := append([]graph.Edge(nil), cands...)
			g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
				TargetClustering: target,
				RC:               2,
				Seed1:            17,
				Seed2:            0x5eed,
				ForbidDegenerate: tc.forbid,
				Workers:          workers,
			})
			if st.Accepted == 0 {
				t.Errorf("forbid=%v workers=%d: accepted nothing — weak input", tc.forbid, workers)
			}
			if got := rewireDigest(g, cc, st); got != tc.want {
				t.Errorf("forbid=%v workers=%d: digest %s, want %s (stats %+v)", tc.forbid, workers, got, tc.want, st)
			}
		}
	}
}
