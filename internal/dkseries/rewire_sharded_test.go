package dkseries

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sgr/internal/graph"
)

// shardedInput reuses the randomized differential inputs and spikes them
// with explicit self-loops so the overlay evaluator's loop-handling paths
// run (HolmeKim alone produces none, and loops only arise mid-rewiring).
func shardedInput(seed uint64, n int) (fixed, cands []graph.Edge, target map[int]float64) {
	fixed, cands, target = diffInput(seed, n)
	for i := 0; i < 3 && i < len(cands); i++ {
		v := cands[i*11%len(cands)].U
		cands = append(cands, graph.Edge{U: v, V: v})
	}
	return fixed, cands, target
}

func nodeCount(fixed, cands []graph.Edge) int {
	n := 0
	for _, e := range append(append([]graph.Edge(nil), fixed...), cands...) {
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
	}
	return n
}

// TestRewireShardedDigest pins RewireSharded's bytes on the randomized
// differential inputs: every RewireStats field (the L1 distances by their
// float bits), the output graph and the final candidate endpoints, through
// rewireDigest, for seeds 1-4 with and without ForbidDegenerate. The
// digests were recorded while the propose phase still ran on a worker
// pool, and worker counts 1, 2 and 8 all produced them.
func TestRewireShardedDigest(t *testing.T) {
	want := [4][2]string{ // [seed-1][forbid]
		{"f91e9bbe16bf2c7f266b08a5377c3cbf244939e65c56ec89535d0d1b2cdbbbd8", "ddf513a792caa00ff0bde3789d73d3781e79bd72322e301aae200a00fe470bc5"},
		{"d89429ba2b4649a0f36ce891b07ca79d264806cf8c038772acd9d285d5a2329f", "a83ffcd29ac8c271c1ccd1b17a2afeaf21520c43788cb76a8841dc16980a2e10"},
		{"7a07b2485bc7f68df6459a224d8195665df550ce8f847cc157cc153c90c2dea6", "4782146aa7e8a58d1d3852b23e3c4fae090f57c8b8c9d59aa386021c40e3a4ca"},
		{"1dc110e67a55933c29e7f6da8ec6b0cef7e8f57c34015e4653f893c3c02dc540", "b69efcb733ad86353c6b7f5ba12d0f26c1b038cf7f562b82baec033ae44dcf71"},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		fixed, cands, target := shardedInput(seed, 120+int(seed)*40)
		n := nodeCount(fixed, cands)
		for fi, forbid := range []bool{false, true} {
			cc := append([]graph.Edge(nil), cands...)
			g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
				TargetClustering: target,
				RC:               6,
				Seed1:            seed,
				Seed2:            seed ^ 0xabcdef,
				ForbidDegenerate: forbid,
			})
			if st.Accepted == 0 {
				t.Errorf("seed %d forbid=%v: sharded rewiring accepted nothing — weak input", seed, forbid)
			}
			if got := rewireDigest(g, cc, st); got != want[seed-1][fi] {
				t.Errorf("seed %d forbid=%v: digest %s, want %s (stats %+v)",
					seed, forbid, got, want[seed-1][fi], st)
			}
		}
	}
}

// TestRewireShardedShapeInvariance pins that the shard count and round
// size select the trajectory: they are part of the output contract.
func TestRewireShardedShapeInvariance(t *testing.T) {
	fixed, cands, target := shardedInput(3, 150)
	n := nodeCount(fixed, cands)
	run := func(shards, roundSize int) RewireStats {
		cc := append([]graph.Edge(nil), cands...)
		_, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            7,
			Seed2:            11,
			shards:           shards,
			roundSize:        roundSize,
		})
		return st
	}
	odd := run(3, 17) // stress quota allocation with awkward shapes
	def := run(0, 0)
	if odd == def {
		t.Fatal("distinct shard shapes produced identical stats — shape is not keying the trajectory")
	}
}

// TestRewireShardedDeltaExact is the white-box differential behind the
// commit-time evaluator, which computes a swap's deltas without applying
// them: for random swap proposals, evalSwap's predicted
// per-node triangle deltas and the sorted-dirty accept sum must match
// what the serial engine's mutate path (removeEdge/addEdge/settleDirty)
// actually produces — bit for bit on the float side.
func TestRewireShardedDeltaExact(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		fixed, cands, target := shardedInput(seed, 100+int(seed)*25)
		n := nodeCount(fixed, cands)
		st := newSerialState(n, fixed, cands, target)
		run := &shardedRun{st: st.rewireState, rows: buildRows(st), marks: &markSet{vm: make([]vmark, n)}}
		sc := newEvalScratch(len(st.buckets) - 1)
		r := rand.New(rand.NewPCG(seed, 0xd1ff))
		kmax := len(st.buckets) - 1
		dsum := make([]int64, kmax+1)
		trials, exercised := 200, 0
		for trial := 0; trial < trials; trial++ {
			e1 := r.IntN(len(st.ends))
			e2 := r.IntN(len(st.ends))
			if e1 == e2 {
				continue
			}
			s1, s2 := r.IntN(2), r.IntN(2)
			i := st.endpoint(e1, s1)
			j := st.endpoint(e1, 1-s1)
			a := st.endpoint(e2, s2)
			b := st.endpoint(e2, 1-s2)
			if i == a || j == b {
				continue
			}
			exercised++

			sc.touch, sc.kd = sc.touch[:0], sc.kd[:0]
			run.evalSwap(sc, int32(i), int32(j), int32(a), int32(b))
			pred := map[int32]int64{}
			for _, td := range sc.touch {
				pred[td.w] += td.d
				dsum[st.deg[td.w]] += td.d
			}
			// The kd span must agree with an independent per-degree
			// aggregation of touch, be degree-sorted, and omit zeros.
			predSum := st.sum
			prevK := int32(-1)
			for _, e := range sc.kd {
				if e.k <= prevK {
					t.Fatalf("seed %d trial %d: kd not strictly degree-sorted", seed, trial)
				}
				prevK = e.k
				if e.d != dsum[e.k] {
					t.Fatalf("seed %d trial %d: kd[%d] = %d, touch aggregates to %d",
						seed, trial, e.k, e.d, dsum[e.k])
				}
				predSum += st.termWith(int(e.k), st.sumT[e.k]+e.d) - st.term[e.k]
			}
			for k, d := range dsum {
				if d == 0 {
					continue
				}
				found := false
				for _, e := range sc.kd {
					if int(e.k) == k {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d trial %d: degree %d missing from kd", seed, trial, k)
				}
			}

			t0 := append([]int64(nil), st.t...)
			sumT0 := append([]int64(nil), st.sumT...)

			// Ground truth: the serial mutate path.
			st.removeEdge(i, j)
			st.removeEdge(a, b)
			st.addEdge(i, b)
			st.addEdge(a, j)
			st.settleDirty()

			for w := 0; w < n; w++ {
				if st.t[w] != t0[w]+pred[int32(w)] {
					t.Fatalf("seed %d trial %d: t[%d] = %d, predicted %d (was %d)",
						seed, trial, w, st.t[w], t0[w]+pred[int32(w)], t0[w])
				}
			}
			for k := range st.sumT {
				if st.sumT[k] != sumT0[k]+dsum[k] {
					t.Fatalf("seed %d trial %d: sumT[%d] diverges", seed, trial, k)
				}
			}
			if math.Float64bits(st.sum) != math.Float64bits(predSum) {
				t.Fatalf("seed %d trial %d: accept sum bits diverge: serial %v sharded %v",
					seed, trial, st.sum, predSum)
			}

			// Keep some mutations (re-pointing halves like an accept) so later
			// trials run against evolved states with loops and multi-edges;
			// revert the rest. The sorted-row mirror only tracks the serial
			// ground-truth mutations through a rebuild.
			if trial%3 == 0 {
				st.removeHalf(halfRef{e1, 1 - s1}, st.deg[j])
				st.removeHalf(halfRef{e2, 1 - s2}, st.deg[b])
				st.setEndpoint(e1, 1-s1, b)
				st.setEndpoint(e2, 1-s2, j)
				st.placeHalf(halfRef{e1, 1 - s1}, st.deg[b])
				st.placeHalf(halfRef{e2, 1 - s2}, st.deg[j])
				run.rows = buildRows(st)
			} else {
				st.removeEdge(i, b)
				st.removeEdge(a, j)
				st.addEdge(i, j)
				st.addEdge(a, b)
				st.settleDirty()
			}
			for k := range dsum {
				dsum[k] = 0
			}
		}
		if exercised < trials/2 {
			t.Fatalf("seed %d: only %d/%d trials exercised the evaluator", seed, exercised, trials)
		}
	}
}

// TestRewireShardedInvariants checks the Algorithm-6 conservation laws on
// the parallel engine's output: degree vector and joint degree matrix are
// untouched, fixed edges survive verbatim, the attempt budget is spent
// exactly, and the distance never gets worse.
func TestRewireShardedInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fixed, cands, target := shardedInput(seed, 140)
		n := nodeCount(fixed, cands)
		before := graph.New(n)
		for _, e := range append(append([]graph.Edge(nil), fixed...), cands...) {
			before.AddEdge(e.U, e.V)
		}
		cc := append([]graph.Edge(nil), cands...)
		g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            seed,
			Seed2:            seed * 3,
		})
		if want := int(6 * float64(len(cands))); st.Attempts != want {
			t.Fatalf("seed %d: attempts %d, want exactly %d", seed, st.Attempts, want)
		}
		if st.FinalL1 > st.InitialL1 {
			t.Fatalf("seed %d: distance got worse: %g -> %g", seed, st.InitialL1, st.FinalL1)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != before.Degree(v) {
				t.Fatalf("seed %d: degree of %d changed: %d -> %d", seed, v, before.Degree(v), g.Degree(v))
			}
		}
		jb, ja := before.JointDegreeMatrix(), g.JointDegreeMatrix()
		if len(jb) != len(ja) {
			t.Fatalf("seed %d: JDM support changed", seed)
		}
		for k, v := range jb {
			if ja[k] != v {
				t.Fatalf("seed %d: JDM[%v] changed: %d -> %d", seed, k, v, ja[k])
			}
		}
		// Fixed edges must appear in the output with at least their input
		// multiplicity (candidates may stack on top).
		fm := map[graph.Edge]int{}
		for _, e := range fixed {
			if e.V < e.U {
				e.U, e.V = e.V, e.U
			}
			fm[e]++
		}
		om := map[graph.Edge]int{}
		for _, e := range g.Edges() {
			if e.V < e.U {
				e.U, e.V = e.V, e.U
			}
			om[e]++
		}
		for e, c := range fm {
			if om[e] < c {
				t.Fatalf("seed %d: fixed edge %v lost", seed, e)
			}
		}
	}
}

// TestRewireShardedQuality keeps the engine honest against the serial
// reference loop: on identical inputs and budgets the sharded trajectory
// differs from the serial one, but it must converge comparably — the
// whole point of the rewiring phase.
func TestRewireShardedQuality(t *testing.T) {
	var serialSum, shardedSum float64
	for seed := uint64(1); seed <= 4; seed++ {
		fixed, cands, target := diffInput(seed, 160)
		n := nodeCount(fixed, cands)
		cs := append([]graph.Edge(nil), cands...)
		_, serial := rewireSerialRef(n, fixed, cs, rewireOptions{
			TargetClustering: target, RC: 10,
			Rand: rand.New(rand.NewPCG(seed, 42)),
		})
		cp := append([]graph.Edge(nil), cands...)
		_, sharded := RewireSharded(n, fixed, cp, ShardedRewireOptions{
			TargetClustering: target, RC: 10, Seed1: seed, Seed2: 42,
		})
		serialSum += serial.FinalL1
		shardedSum += sharded.FinalL1
		if sharded.Accepted == 0 {
			t.Fatalf("seed %d: sharded engine accepted nothing", seed)
		}
	}
	// Averaged over seeds the sharded engine must land within 20% of the
	// serial engine's final distance (it usually lands below: the pairable
	// index stops it wasting draws on unpairable buckets).
	if shardedSum > serialSum*1.2 {
		t.Fatalf("sharded converges worse than serial: avg L1 %.4f vs %.4f",
			shardedSum/4, serialSum/4)
	}
}

// TestShardedStateMatchesSerial pins the sharded engine's direct state
// constructor (sorted rows from edges, triangles by row intersection) to
// the serial reference's newSerialState: every scalar, array and float
// bit must match, and the direct rows must equal buildRows over the
// serial state.
func TestShardedStateMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fixed, cands, target := shardedInput(seed, 300)
		n := nodeCount(fixed, cands)
		ref := newSerialState(n, fixed, cands, target)
		refRows := buildRows(ref)
		st, rows := newShardedState(n, fixed, cands, target)

		if !slices.Equal(st.deg, ref.deg) || !slices.Equal(st.t, ref.t) {
			t.Fatalf("seed %d: deg/t mismatch", seed)
		}
		if !slices.Equal(st.nk, ref.nk) || !slices.Equal(st.sumT, ref.sumT) {
			t.Fatalf("seed %d: nk/sumT mismatch", seed)
		}
		for k := range ref.tgt {
			if math.Float64bits(st.tgt[k]) != math.Float64bits(ref.tgt[k]) ||
				math.Float64bits(st.term[k]) != math.Float64bits(ref.term[k]) {
				t.Fatalf("seed %d: tgt/term bits differ at k=%d", seed, k)
			}
		}
		if math.Float64bits(st.normC) != math.Float64bits(ref.normC) ||
			math.Float64bits(st.sum) != math.Float64bits(ref.sum) {
			t.Fatalf("seed %d: normC/sum bits differ", seed)
		}
		if !slices.Equal(st.ends, ref.ends) || !slices.Equal(st.pos, ref.pos) {
			t.Fatalf("seed %d: ends/pos mismatch", seed)
		}
		if len(st.buckets) != len(ref.buckets) {
			t.Fatalf("seed %d: bucket count mismatch", seed)
		}
		for k := range ref.buckets {
			if !slices.Equal(st.buckets[k], ref.buckets[k]) {
				t.Fatalf("seed %d: bucket %d mismatch", seed, k)
			}
		}
		if !slices.Equal(rows.off, refRows.off) || !slices.Equal(rows.ln, refRows.ln) {
			t.Fatalf("seed %d: row shape mismatch", seed)
		}
		for u := 0; u < n; u++ {
			o, l := rows.off[u], int(rows.ln[u])
			if !slices.Equal(rows.nbr[o:o+l], refRows.nbr[o:o+l]) ||
				!slices.Equal(rows.cnt[o:o+l], refRows.cnt[o:o+l]) {
				t.Fatalf("seed %d: row %d content mismatch", seed, u)
			}
		}
	}
}

// TestRewireShardedDegeneracyVerdict pins the ForbidDegenerate rule of the
// commit phase on hand-built rounds. The graph is triangle-free and every
// target is 1, so a swap is accepted exactly when it closes a triangle.
// Nodes (degree): i=0 (3), j=1 (1), b=2 (2), x=3 (3), c=4 (3), d=5 (2),
// a=8 (3), p=10 (3), q=11 (1), and leaves 6, 7, 9, 12, 13.
//
//	candidates: e0 (i,j), e1 (a,b), e2 (i,b), e3 (c,d), e4 (p,q)
//	fixed:      (i,x) (d,x) (c,6) (c,7) (a,9) (a,x) (p,12) (p,13)
//
// swap(e0,e1) would add (i,b), a parallel edge to e2: it is degenerate at
// round start. swap(e2,e3) drops (i,b) and closes triangle i-d-x;
// swap(e1,e3) re-points e1 to (a,d) and closes a-d-x. Both are accepted.
func TestRewireShardedDegeneracyVerdict(t *testing.T) {
	fixed := []graph.Edge{{U: 0, V: 3}, {U: 5, V: 3}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 8, V: 9}, {U: 8, V: 3}, {U: 10, V: 12}, {U: 10, V: 13}}
	cands := []graph.Edge{{U: 0, V: 1}, {U: 8, V: 2}, {U: 0, V: 2}, {U: 4, V: 5}, {U: 10, V: 11}}
	target := map[int]float64{1: 1, 2: 1, 3: 1}
	swap := func(e1, e2 int32) proposal { return proposal{e1: e1, e2: e2} } // both from side U
	// round commits props as one round, each verdict drawn at round start
	// the way shardJob draws it, and reports the verdicts and the stats.
	round := func(props ...proposal) ([]bool, RewireStats) {
		st, rows := newShardedState(14, fixed, append([]graph.Edge(nil), cands...), target)
		r := newShardedRun(st, rows, ShardedRewireOptions{TargetClustering: target, ForbidDegenerate: true})
		r.round++
		verdicts := make([]bool, len(props))
		for k := range props {
			props[k].degenerate = r.degenerate(r.swapEnds(&props[k]))
			verdicts[k] = props[k].degenerate
		}
		var stats RewireStats
		for k := range props {
			r.commitOne(&props[k], &stats)
		}
		return verdicts, stats
	}
	check := func(name string, verdicts []bool, stats RewireStats, wantVerdicts []bool, accepted, recomputed int) {
		t.Helper()
		if !slices.Equal(verdicts, wantVerdicts) {
			t.Errorf("%s: round-start verdicts %v, want %v", name, verdicts, wantVerdicts)
		}
		if stats.Attempts != len(verdicts) || stats.Accepted != accepted || stats.Recomputed != recomputed {
			t.Errorf("%s: stats %+v, want %d attempts, %d accepted, %d recomputed",
				name, stats, len(verdicts), accepted, recomputed)
		}
	}

	// (a) swap(e2,e3) removes (i,b) and stamps i and b, so on the live rows
	// swap(e0,e1) is no longer degenerate. Neither e0 nor e1 was
	// re-pointed: the round-start verdict stands and rejects it before
	// evaluation.
	v, s := round(swap(2, 3), swap(0, 1))
	check("(a) endpoint rows changed, edges not re-pointed", v, s, []bool{false, true}, 1, 0)

	// (b) swap(e1,e3) re-points e1 to (a,d): swap(e0,e1) is now
	// (i,j)+(a,d), not degenerate on the live rows. The round-start
	// verdict no longer applies; the proposal is re-checked and evaluated.
	v, s = round(swap(1, 3), swap(0, 1))
	check("(b) edge re-pointed", v, s, []bool{false, true}, 1, 1)

	// (c) swap(e0,e4) is not degenerate, and swap(e2,e3) stamped its
	// endpoint i: it is evaluated on the live state and counted.
	v, s = round(swap(2, 3), swap(0, 4))
	check("(c) stamped endpoint", v, s, []bool{false, false}, 1, 1)
}
