package dkseries

import (
	"math/rand/v2"
	"slices"
	"testing"

	"sgr/internal/graph"
)

// FuzzRewireSharded runs the engine on random small inputs and checks the
// Algorithm-6 conservation laws plus the engine's incremental bookkeeping.
// data[0] picks the node count (2-17) and data[1] how many of the edges
// are fixed; every further byte pair is one edge, endpoints reduced mod
// n, so self-loops and multi-edges are common. rc is read as tenths,
// capped at 8. seed draws the target clustering and the proposal streams.
//
// Properties: degrees and the JDM are unchanged, fixed edges survive
// verbatim, the attempt budget is spent exactly (none of it when the
// target is all zero), and under
// ForbidDegenerate no pair of nodes gains a loop or a parallel edge. The
// engine's triangle counts t and per-degree sums sumT after the run equal
// those of a fresh newShardedState built from the fixed edges and the
// final candidate endpoints, integer for integer.
func FuzzRewireSharded(f *testing.F) {
	f.Add([]byte{6, 2, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 1, 3, 4, 5, 5, 0}, uint8(50), false, uint64(1))
	f.Add([]byte{9, 3, 0, 1, 0, 1, 2, 2, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 1, 5, 2, 6, 3, 3}, uint8(80), true, uint64(2))
	f.Add([]byte{3, 0, 0, 0, 1, 1, 2, 2, 0, 1}, uint8(80), true, uint64(3))
	f.Add([]byte{}, uint8(0), false, uint64(0))
	// Self-loops at 1 and 3, both of degree 3: swapping them would add
	// {1,3} twice, which ForbidDegenerate must reject.
	f.Add([]byte("70770800ZZ87"), uint8('c'), true, uint64(71))
	f.Fuzz(func(t *testing.T, data []byte, rc8 uint8, forbid bool, seed uint64) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%16
		var edges []graph.Edge
		for k := 2; k+1 < len(data) && len(edges) < 64; k += 2 {
			edges = append(edges, graph.Edge{U: int(data[k]) % n, V: int(data[k+1]) % n})
		}
		cut := int(data[1]) % (len(edges) + 1)
		fixed, cands := edges[:cut], edges[cut:]
		rc := float64(rc8%81) / 10

		r := rand.New(rand.NewPCG(seed, 0xf022))
		target := map[int]float64{}
		budget := 0 // an all-zero target leaves nothing to rewire toward
		for k := 2; k <= 2*len(edges); k++ {
			if r.IntN(2) == 0 {
				target[k] = r.Float64()
				if target[k] > 0 {
					budget = AttemptBudget(rc, len(cands))
				}
			}
		}

		before := graph.FromEdgeLists(n, fixed, cands)
		cc := slices.Clone(cands)
		opts := ShardedRewireOptions{TargetClustering: target, RC: rc, Seed1: seed, Seed2: seed >> 7, ForbidDegenerate: forbid}
		g, stats := RewireSharded(n, fixed, cc, opts)

		if stats.Attempts != budget {
			t.Fatalf("attempts %d, want exactly %d", stats.Attempts, budget)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != before.Degree(v) {
				t.Fatalf("degree of %d changed: %d -> %d", v, before.Degree(v), g.Degree(v))
			}
		}
		jb, ja := before.JointDegreeMatrix(), g.JointDegreeMatrix()
		if len(jb) != len(ja) {
			t.Fatalf("JDM support changed: %v -> %v", jb, ja)
		}
		for k, c := range jb {
			if ja[k] != c {
				t.Fatalf("JDM[%v] changed: %d -> %d", k, c, ja[k])
			}
		}
		out := map[graph.Edge]int{}
		for _, e := range g.Edges() {
			out[e]++
		}
		for _, e := range fixed {
			if out[e.Canon()]--; out[e.Canon()] < 0 {
				t.Fatalf("fixed edge %v lost", e)
			}
		}
		if forbid {
			for u := 0; u < n; u++ {
				for v := u; v < n; v++ {
					was, now := before.Multiplicity(u, v), g.Multiplicity(u, v)
					if now > max(was, 1) || u == v && now > was {
						t.Fatalf("ForbidDegenerate: pair (%d,%d) went from multiplicity %d to %d", u, v, was, now)
					}
				}
			}
		}

		// White box: rerun the engine on its own state and rebuild that
		// state from scratch at the final endpoints.
		st, rows := newShardedState(n, fixed, slices.Clone(cands), target)
		if len(cands) > 0 && st.normC > 0 {
			newShardedRun(st, rows, opts).run(budget, &RewireStats{})
		}
		if !slices.Equal(st.ends, cc) {
			t.Fatalf("engine rerun ended at %v, RewireSharded at %v", st.ends, cc)
		}
		fresh, _ := newShardedState(n, fixed, st.ends, target)
		if !slices.Equal(st.t, fresh.t) {
			t.Fatalf("triangle counts drifted: engine %v, fresh %v", st.t, fresh.t)
		}
		if !slices.Equal(st.sumT, fresh.sumT) {
			t.Fatalf("per-degree triangle sums drifted: engine %v, fresh %v", st.sumT, fresh.sumT)
		}
	})
}
