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

// TestRewireShardedWorkerInvariance is the acceptance guard of the
// parallel engine: stats (including float bits), the output graph and the
// final candidate endpoints must be byte-identical at every worker count.
// Run under -race this also exercises the propose-phase concurrency.
func TestRewireShardedWorkerInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fixed, cands, target := shardedInput(seed, 120+int(seed)*40)
		n := nodeCount(fixed, cands)
		for _, forbid := range []bool{false, true} {
			type out struct {
				g     *graph.Graph
				st    RewireStats
				cands []graph.Edge
			}
			var ref *out
			for _, workers := range []int{1, 2, 8} {
				cc := append([]graph.Edge(nil), cands...)
				g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
					TargetClustering: target,
					RC:               6,
					Seed1:            seed,
					Seed2:            seed ^ 0xabcdef,
					ForbidDegenerate: forbid,
					Workers:          workers,
				})
				cur := &out{g, st, cc}
				if ref == nil {
					ref = cur
					if st.Accepted == 0 {
						t.Errorf("seed %d forbid=%v: sharded rewiring accepted nothing — weak input", seed, forbid)
					}
					continue
				}
				if cur.st != ref.st {
					t.Fatalf("seed %d forbid=%v workers=%d: stats diverge: %+v vs %+v",
						seed, forbid, workers, cur.st, ref.st)
				}
				if math.Float64bits(cur.st.FinalL1) != math.Float64bits(ref.st.FinalL1) {
					t.Fatalf("seed %d forbid=%v workers=%d: FinalL1 bits diverge", seed, forbid, workers)
				}
				if !graph.Equal(cur.g, ref.g) {
					t.Fatalf("seed %d forbid=%v workers=%d: output graphs diverge", seed, forbid, workers)
				}
				for i := range cur.cands {
					if cur.cands[i] != ref.cands[i] {
						t.Fatalf("seed %d forbid=%v workers=%d: candidate %d endpoints diverge",
							seed, forbid, workers, i)
					}
				}
			}
		}
	}
}

// TestRewireShardedShapeInvariance pins the other half of the contract:
// the shard count and round size DO select the trajectory (they are part
// of the output contract), while Workers never does — even for
// non-default shard shapes.
func TestRewireShardedShapeInvariance(t *testing.T) {
	fixed, cands, target := shardedInput(3, 150)
	n := nodeCount(fixed, cands)
	run := func(workers, shards, roundSize int) RewireStats {
		cc := append([]graph.Edge(nil), cands...)
		_, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            7,
			Seed2:            11,
			Workers:          workers,
			shards:           shards,
			roundSize:        roundSize,
		})
		return st
	}
	odd := run(1, 3, 17) // stress quota allocation with awkward shapes
	if odd != run(8, 3, 17) {
		t.Fatal("workers changed the result at non-default shard shape")
	}
	def := run(1, 0, 0)
	if odd == def {
		t.Fatal("distinct shard shapes produced identical stats — shape is not keying the trajectory")
	}
}

// TestRewireShardedDeltaExact is the white-box differential behind the
// read-only evaluator: for random swap proposals, evalSwap's predicted
// per-node triangle deltas and the sorted-dirty accept sum must match
// what the serial engine's mutate path (removeEdge/addEdge/settleDirty)
// actually produces — bit for bit on the float side.
func TestRewireShardedDeltaExact(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		fixed, cands, target := shardedInput(seed, 100+int(seed)*25)
		n := nodeCount(fixed, cands)
		st := newSerialState(n, fixed, cands, target)
		run := &shardedRun{st: st.rewireState, rows: buildRows(st)}
		sc := newEvalScratch(len(st.buckets) - 1)
		ms := &markSet{vm: make([]vmark, n)}
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
			run.evalSwap(sc, ms, int32(i), int32(j), int32(a), int32(b))
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
