package dkseries

import (
	"context"
	"math/rand/v2"
	"slices"

	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/parallel"
	"sgr/internal/sampling"
)

// This file implements Algorithm 6 as deterministic parallel rounds.
// Algorithm 6 as written mutates the adjacency on every attempt and
// reverts on rejection — correct, but inherently sequential and twice as
// expensive as necessary on the ~97% of attempts that are rejected (that
// serial loop survives as the test reference in rewire_serialref_test.go).
// RewireSharded restructures the loop into rounds:
//
//  1. Propose (parallel, read-only). The candidate half-edge space is
//     partitioned by degree bucket into a fixed number of shards. Each
//     shard draws a quota of swap proposals from its own PCG sub-stream
//     (sampling.SubStream) and evaluates the exact triangle-count delta
//     of each proposal against the round-start adjacency without
//     mutating it. The four scans of the serial loop fuse into one
//     sweep: for any node w outside the swap's endpoint set, the net
//     delta of remove(i,j), remove(a,b), add(i,b), add(a,j) factors as
//
//         delta_w = (A_iw - A_aw) * (A_bw - A_jw)
//
//     so one mark-and-probe pass over the four neighbor rows (sortedRows)
//     yields every delta, while the handful of endpoint-internal
//     contributions go through a 4x4 overlay matrix that replays the
//     serial op order exactly. Shards write disjoint buffers, so any
//     number of workers may execute them.
//  2. Commit (serial, fixed order). Proposals are applied in a fixed
//     interleaved shard order. A proposal whose four endpoints are
//     untouched by earlier commits of the same round reuses its
//     precomputed per-degree delta verbatim (degrees are invariant, so
//     it is still exact); a conflicting proposal is re-evaluated against
//     the live state. Rejected proposals — the overwhelming majority —
//     cost one pass over a handful of per-degree deltas and mutate
//     nothing.
//
// Because shard decomposition, sub-stream seeding, quota allocation and
// commit order are all functions of (input, Seed1, Seed2, shard count,
// round size) — never of scheduling — the output graph, the final
// candidate endpoints and every RewireStats field are byte-identical at
// any Workers value, including 1. Workers is a wall-clock knob only.
//
// What DOES change the bytes: Seed1/Seed2 (by design), the shard count
// and the round size (they define the proposal sequence). Both are fixed
// constants, DefaultRewireShards and DefaultRewireRoundSize, and as
// frozen as the accept rule.

// DefaultRewireShards is the default shard count of RewireSharded: the
// number of independent proposal streams the degree-bucket space is
// partitioned into. It bounds useful parallelism and is part of the
// output contract — changing it re-keys every seeded result.
const DefaultRewireShards = 16

// DefaultRewireRoundSize is the default number of proposals evaluated per
// round across all shards. Larger rounds amortize the propose/commit
// barrier but raise the chance a proposal conflicts with an earlier
// commit of the same round (forcing a serial re-evaluation). Part of the
// output contract, like DefaultRewireShards.
const DefaultRewireRoundSize = 256

// ShardedRewireOptions configures RewireSharded. The zero value of every
// field except TargetClustering selects a documented default.
type ShardedRewireOptions struct {
	// TargetClustering is the estimated degree-dependent clustering
	// coefficient c-hat(k) the rewiring tries to match.
	TargetClustering map[int]float64
	// RC is the rewiring-attempt coefficient: the engine issues
	// RC * len(candidates) proposals in total (paper default 500). It
	// must pass CheckRC; RewireSharded panics otherwise.
	RC float64
	// Seed1, Seed2 seed the per-shard proposal streams through
	// sampling.SubStream(Seed1, Seed2, shard). They select the result.
	Seed1, Seed2 uint64
	// ForbidDegenerate rejects swaps that would create a self-loop or a
	// parallel edge, steering the output toward a simple graph (a 2K+
	// style extension; the paper's model permits both).
	ForbidDegenerate bool
	// Workers bounds how many shards evaluate concurrently during the
	// propose phase. <= 0 selects parallel.DefaultWorkers. Workers never
	// affects the output, only the wall clock.
	Workers int
	// Trace, when set, receives two aggregate timers — "rewire/propose"
	// and "rewire/commit" — accumulating the per-round phase split across
	// every round of the run. Like Workers it is wall-clock-only: the
	// timers read the monotonic clock and nothing else, so the output
	// graph and RewireStats are byte-identical with and without one.
	Trace *obs.Trace
	// Ctx, when set, is polled non-blockingly at the top of every
	// propose/commit round: once it is done the engine stops issuing
	// rounds and returns the graph as committed so far — valid (it still
	// realizes the degree vector and JDM) but only partially rewired, with
	// RewireStats reporting the rounds actually run. Callers that must not
	// observe partial results (core.Restore) re-check the context after
	// the engine returns and discard the graph. The poll reads the context
	// and nothing else — no RNG draw, no map walk — so a run the context
	// never interrupts is byte-identical to one with Ctx nil: cancellation
	// can abort an output, never alter one.
	Ctx context.Context

	// shards and roundSize, when positive, override DefaultRewireShards
	// and DefaultRewireRoundSize. Test hooks: both key the trajectory, and
	// the shape-invariance test needs a second shape to show it.
	shards, roundSize int
}

// orDefault returns v, or def when v is not positive.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// RewireSharded implements Algorithm 6: given a graph expressed as fixed
// edges (the sampled subgraph E', never touched) plus candidate edges (the
// added edges, E-tilde \ E'), it repeatedly pairs two candidate edges whose
// chosen endpoints have equal degree and swaps their partners iff the
// normalized L1 distance between the present and target degree-dependent
// clustering coefficients strictly decreases. Degrees, the degree vector
// and the joint degree matrix are all invariant. Gjoka et al.'s variant
// passes every edge as a candidate.
//
// n is the node count; candidates is mutated in place (final endpoints).
// The returned graph is built from fixed plus the rewired candidates, edges
// in that order.
// The result is a deterministic function of the inputs and (Seed1, Seed2)
// — identical at any worker count (see the file comment).
func RewireSharded(n int, fixed []graph.Edge, candidates []graph.Edge, opts ShardedRewireOptions) (*graph.Graph, RewireStats) {
	total := AttemptBudget(opts.RC, len(candidates))
	st, rows := newShardedState(n, fixed, candidates, opts.TargetClustering)
	stats := RewireStats{InitialL1: st.distance()}
	if len(candidates) > 0 && st.normC > 0 {
		newShardedRun(st, rows, opts).run(total, &stats)
	}
	stats.FinalL1 = st.distance()
	copy(candidates, st.ends)
	return graph.FromEdgeLists(n, fixed, candidates), stats
}

// sortedRows is the rewiring adjacency as per-node sorted neighbor rows
// with a parallel multiplicity array, both carved from flat arenas. The
// propose phase reads it concurrently (linear row scans and sorted-row
// probes, no hashing); only commit-phase accepts mutate it — a few
// ordered memmoves per accepted swap. Row capacity is deg[u]: a node's
// distinct-neighbor count can never exceed its degree.
type sortedRows struct {
	off []int   // row start in the arenas
	ln  []int32 // current distinct-neighbor count of each row
	nbr []int32 // sorted neighbor IDs
	cnt []int32 // multiplicities, parallel to nbr
}

// newShardedState builds the rewiring state from the start graph's CSR
// snapshot, built straight from fixed plus candidates: degrees and kmax
// come from the CSR, triangle counts from its TriangleCounts, and
// sortedRows is a mutable copy of its distinct view, each row given
// capacity deg[u]. The result is value-identical to the serial reference's
// hash-based construction on the same input (triangle counts are exact
// integers, and term/sum use the same expressions in the same accumulation
// order), which TestShardedStateMatchesSerial pins.
func newShardedState(n int, fixed, candidates []graph.Edge, target map[int]float64) (*rewireState, *sortedRows) {
	csr := graph.CSRFromEdgeLists(n, fixed, candidates)
	st := &rewireState{deg: make([]int, n), t: csr.TriangleCounts()}
	sr := &sortedRows{
		off: make([]int, n+1),
		ln:  make([]int32, n),
		nbr: make([]int32, 2*csr.M()), // the degree sum
		cnt: make([]int32, 2*csr.M()),
	}
	for u := range st.deg {
		st.deg[u] = csr.Degree(u)
		sr.off[u+1] = sr.off[u] + st.deg[u]
		nbr, mult := csr.Row(u)
		copy(sr.nbr[sr.off[u]:], nbr)
		copy(sr.cnt[sr.off[u]:], mult)
		sr.ln[u] = int32(len(nbr))
	}

	kmax := csr.MaxDegree()
	for k := range target {
		if k > kmax {
			kmax = k
		}
	}
	st.nk = make([]int64, kmax+1)
	st.sumT = make([]int64, kmax+1)
	st.tgt = make([]float64, kmax+1)
	st.term = make([]float64, kmax+1)
	for _, d := range st.deg {
		st.nk[d]++
	}
	// Accumulate normC in ascending degree order: float addition is not
	// associative, and map range order would make the normalization — and
	// the reported L1 distances — vary between runs in the last bits.
	for k, c := range target {
		st.tgt[k] = c
	}
	for k := range st.tgt {
		st.normC += st.tgt[k]
	}
	for u := 0; u < n; u++ {
		st.sumT[st.deg[u]] += st.t[u]
	}
	for k := range st.term {
		st.term[k] = st.termAt(k)
		st.sum += st.term[k]
	}

	st.ends = append([]graph.Edge(nil), candidates...)
	st.buckets = make([][]halfRef, kmax+1)
	st.pos = make([][2]int, len(candidates))
	for i, e := range st.ends {
		st.placeHalf(halfRef{i, 0}, st.deg[e.U])
		st.placeHalf(halfRef{i, 1}, st.deg[e.V])
	}
	return st, sr
}

// get returns the multiplicity of {u,w}: a forward scan with early exit
// on short rows (they are sorted), binary search on long ones.
func (sr *sortedRows) get(u, w int32) int32 {
	o, l := sr.off[u], int(sr.ln[u])
	row := sr.nbr[o : o+l]
	if l <= 24 {
		for x, n := range row {
			if n >= w {
				if n == w {
					return sr.cnt[o+x]
				}
				return 0
			}
		}
		return 0
	}
	lo, hi := 0, l
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < l && row[lo] == w {
		return sr.cnt[o+lo]
	}
	return 0
}

func (sr *sortedRows) find(u, w int32) int {
	o, l := sr.off[u], int(sr.ln[u])
	row := sr.nbr[o : o+l]
	lo, hi := 0, l
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return o + lo
}

// inc adds one {u,w} instance to u's row, keeping it sorted.
func (sr *sortedRows) inc(u, w int32) {
	at := sr.find(u, w)
	o, l := sr.off[u], int(sr.ln[u])
	if at < o+l && sr.nbr[at] == w {
		sr.cnt[at]++
		return
	}
	end := o + l
	copy(sr.nbr[at+1:end+1], sr.nbr[at:end])
	copy(sr.cnt[at+1:end+1], sr.cnt[at:end])
	sr.nbr[at] = w
	sr.cnt[at] = 1
	sr.ln[u]++
}

// dec removes one {u,w} instance from u's row.
func (sr *sortedRows) dec(u, w int32) {
	at := sr.find(u, w)
	if sr.cnt[at] > 1 {
		sr.cnt[at]--
		return
	}
	end := sr.off[u] + int(sr.ln[u])
	copy(sr.nbr[at:end-1], sr.nbr[at+1:end])
	copy(sr.cnt[at:end-1], sr.cnt[at+1:end])
	sr.ln[u]--
}

// tDelta is one node's triangle-count delta under a proposed swap.
type tDelta struct {
	w int32
	d int64
}

// kDelta is one degree class's triangle-sum delta under a proposed swap —
// all the accept test needs. Spans of these are what makes rejects cheap.
type kDelta struct {
	k int32
	d int64
}

// propEvaluated marks a proposal whose delta was computed in the propose
// phase (as opposed to rejected before evaluation).
const propEvaluated uint8 = 1

// proposal is one candidate edge swap: exchange the partners of half
// (e1,s1) and half (e2,s2). i,j,a,b snapshot the endpoints the propose
// phase evaluated, so the commit phase can detect staleness. t0:t1 and
// k0:k1 are the delta spans in the owning shard's scratch buffers.
type proposal struct {
	e1, e2     int32
	s1, s2     uint8
	flags      uint8
	i, j, a, b int32
	t0, t1     int32
	k0, k1     int32
}

// uline is one U-side intersection hit of the evaluator: node w with its
// multiplicities in the rows of i and a.
type uline struct {
	w      int32
	iw, aw int32
}

// vmark is the evaluator's per-node V-side mark: the stamp says
// whether the entry belongs to the current evaluation, b/j are the node's
// multiplicities in the rows of b and j. One struct keeps the three
// fields on one cache line — the mark array is hit at random indices.
type vmark struct {
	stamp uint32
	b, j  int32
}

// markSet is the evaluator's per-node mark array — one entry per node,
// epoch-stamped so no clearing is needed between evaluations — plus the
// list collecting U-side hits. At 12 bytes per node it is the engine's
// only O(n) evaluation scratch, so sets are pooled per concurrently
// running evaluation, not kept per shard.
type markSet struct {
	vm    []vmark
	epoch uint32
	ul    []uline
}

// evalScratch is the reusable delta buffer set of one evaluation stream —
// one per shard plus one for commit-phase re-evaluations. Its touch/kd
// spans outlive the propose phase (commit reads them), so unlike the
// marks they cannot be pooled.
type evalScratch struct {
	ds    []int64 // per-degree accumulator, always zero between proposals
	inD   []bool
	dirty []int32
	touch []tDelta // per-node deltas, consumed only on accept
	kd    []kDelta // per-degree deltas sorted by degree, drive the accept test
}

func newEvalScratch(kmax int) *evalScratch {
	return &evalScratch{ds: make([]int64, kmax+1), inD: make([]bool, kmax+1)}
}

// shardedRun is the engine state of one RewireSharded call on top of the
// shared rewireState.
type shardedRun struct {
	st        *rewireState
	rows      *sortedRows
	forbid    bool
	workers   int
	shards    int
	roundSize int

	round  uint32          // current round number; stamps refer to it
	ctx    context.Context // round-boundary cancellation; nil = never
	rngs   []*rand.Rand
	degsOf [][]int32 // shard -> degree values it owns

	// marks pools min(workers, shards) mark sets — one per evaluation
	// that can run at once. A shard job borrows one for its job, the
	// commit phase one for its round.
	marks chan *markSet

	// Per-shard propose-phase outputs, reused across rounds. Only shard
	// s's job writes index s, so the propose phase is race-free.
	props   [][]proposal
	scratch []*evalScratch
	cumK    [][]int32
	cumH    [][]int32

	// Commit-phase state.
	stamp   []uint32 // node -> round of last adjacency mutation
	estamp  []uint32 // candidate edge -> round of last half re-pointing
	csc     *evalScratch
	newTerm []float64

	// Aggregate round timers (nil when untraced): the propose/commit
	// wall-clock split across every round. Observability only.
	proposeTm, commitTm *obs.Timer

	hs, quotas []int // per-round pairable-half counts and quotas
	remOrder   []int // largest-remainder allocation scratch
}

func newShardedRun(st *rewireState, rows *sortedRows, opts ShardedRewireOptions) *shardedRun {
	r := &shardedRun{
		st:        st,
		rows:      rows,
		ctx:       opts.Ctx,
		forbid:    opts.ForbidDegenerate,
		workers:   opts.Workers,
		shards:    orDefault(opts.shards, DefaultRewireShards),
		roundSize: orDefault(opts.roundSize, DefaultRewireRoundSize),
		proposeTm: opts.Trace.Timer("rewire/propose"),
		commitTm:  opts.Trace.Timer("rewire/commit"),
	}
	kmax := len(st.buckets) - 1
	// Assign degree buckets to shards by greedy longest-processing-time
	// on the initial half counts (size desc, degree asc): hub buckets
	// land on separate shards, so hub-heavy graphs spread their proposal
	// load instead of serializing it on one stream. The assignment is a
	// pure function of the input and stays fixed for the whole run.
	type kv struct{ k, size int }
	order := make([]kv, 0, kmax+1)
	for k := 0; k <= kmax; k++ {
		order = append(order, kv{k, len(st.buckets[k])})
	}
	slices.SortFunc(order, func(a, b kv) int {
		if a.size != b.size {
			return b.size - a.size
		}
		return a.k - b.k
	})
	r.degsOf = make([][]int32, r.shards)
	load := make([]int, r.shards)
	for _, e := range order {
		s := 0
		for t := 1; t < r.shards; t++ {
			if load[t] < load[s] {
				s = t
			}
		}
		load[s] += e.size
		r.degsOf[s] = append(r.degsOf[s], int32(e.k))
	}
	// Selection walks each shard's degrees in ascending order.
	for s := range r.degsOf {
		slices.Sort(r.degsOf[s])
	}
	r.rngs = make([]*rand.Rand, r.shards)
	r.scratch = make([]*evalScratch, r.shards)
	for s := range r.rngs {
		r.rngs[s] = sampling.SubStream(opts.Seed1, opts.Seed2, uint64(s))
		r.scratch[s] = newEvalScratch(kmax)
	}
	// parallel.ForEach runs at most min(workers, shards) jobs at once, so
	// a borrow never waits.
	r.marks = make(chan *markSet, min(orDefault(r.workers, parallel.DefaultWorkers()), r.shards))
	for range cap(r.marks) {
		r.marks <- &markSet{vm: make([]vmark, len(st.deg))}
	}
	r.props = make([][]proposal, r.shards)
	r.cumK = make([][]int32, r.shards)
	r.cumH = make([][]int32, r.shards)
	r.stamp = make([]uint32, len(st.deg))
	r.estamp = make([]uint32, len(st.ends))
	r.csc = newEvalScratch(kmax)
	r.hs = make([]int, r.shards)
	r.quotas = make([]int, r.shards)
	r.remOrder = make([]int, r.shards)
	return r
}

// run drives the propose/commit rounds until the attempt budget of
// `total` proposals is spent or the context fires between rounds.
// Attempts is bumped exactly total times when the run completes — the
// same budget accounting as the serial loop; a cancelled run leaves the
// unspent budget uncounted, which is how RewireStats reports the abort.
func (r *shardedRun) run(total int, stats *RewireStats) {
	for done := 0; done < total; {
		if r.ctx != nil {
			select {
			case <-r.ctx.Done():
				// Cooperative abort at a round boundary: the committed
				// prefix of rounds is a valid (degree- and JDM-preserving)
				// graph, and no state from the abandoned rounds — RNG
				// positions included — has been touched.
				return
			default:
			}
		}
		p := min(r.roundSize, total-done)
		if !r.allocate(p) {
			// No degree bucket holds two candidate halves: every
			// remaining proposal would be rejected before evaluation.
			stats.Attempts += total - done
			return
		}
		r.round++
		stats.Rounds++
		r.proposeTm.Start()
		parallel.ForEach(r.workers, r.shards, func(s int) error {
			r.shardJob(s, r.quotas[s])
			return nil
		})
		r.proposeTm.Stop()
		r.commitTm.Start()
		r.commitRound(stats)
		r.commitTm.Stop()
		done += p
	}
}

// allocate computes each shard's proposal quota for a round of p
// proposals, proportional to its current pairable half count (buckets
// with at least two halves) via largest-remainder rounding. Reports
// whether any proposals are possible at all.
func (r *shardedRun) allocate(p int) bool {
	st := r.st
	total := 0
	for s, degs := range r.degsOf {
		h := 0
		for _, k := range degs {
			if n := len(st.buckets[k]); n >= 2 {
				h += n
			}
		}
		r.hs[s] = h
		total += h
	}
	if total == 0 {
		return false
	}
	assigned := 0
	for s := range r.quotas {
		q := p * r.hs[s] / total
		r.quotas[s] = q
		assigned += q
		r.remOrder[s] = s
	}
	if rest := p - assigned; rest > 0 {
		// Largest fractional remainder first, shard index breaking ties:
		// deterministic, and never selects a shard with no halves (its
		// remainder is zero and at least `rest` shards have a larger one).
		slices.SortFunc(r.remOrder, func(a, b int) int {
			ra, rb := p*r.hs[a]%total, p*r.hs[b]%total
			if ra != rb {
				return rb - ra
			}
			return a - b
		})
		for k := 0; k < rest; k++ {
			r.quotas[r.remOrder[k]]++
		}
	}
	return true
}

// shardJob draws and evaluates one shard's proposals for the current
// round. It reads shared state (adjacency rows, endpoints, buckets) that
// no one mutates during the propose phase and writes only shard-owned
// buffers, so jobs are race-free and their outputs independent of how
// they are scheduled onto workers.
func (r *shardedRun) shardJob(s, quota int) {
	props := r.props[s][:0]
	if quota == 0 {
		r.props[s] = props
		return
	}
	st := r.st
	rng := r.rngs[s]
	sc := r.scratch[s]
	sc.touch = sc.touch[:0]
	sc.kd = sc.kd[:0]
	// Pairable-bucket prefix sums: the shard's proposal index. Buckets
	// with fewer than two halves cannot form a swap, so they are excluded
	// from selection entirely — on hub-heavy graphs this is what keeps
	// near-singleton hub buckets from burning the attempt budget on
	// self-pairings.
	cumK, cumH := r.cumK[s][:0], r.cumH[s][:0]
	h := int32(0)
	for _, k := range r.degsOf[s] {
		if n := len(st.buckets[k]); n >= 2 {
			h += int32(n)
			cumK = append(cumK, k)
			cumH = append(cumH, h)
		}
	}
	r.cumK[s], r.cumH[s] = cumK, cumH
	ms := <-r.marks
	for q := 0; q < quota; q++ {
		var p proposal
		if h > 0 {
			// First half uniform over the shard's pairable halves, second
			// uniform over the first's bucket — the same two-draw shape as
			// the serial loop, restricted to pairable buckets.
			x := int32(rng.IntN(int(h)))
			lo := 0 // first cumH[lo] > x; shards own a handful of buckets
			for cumH[lo] <= x {
				lo++
			}
			base := int32(0)
			if lo > 0 {
				base = cumH[lo-1]
			}
			b := st.buckets[cumK[lo]]
			h1 := b[x-base]
			h2 := b[rng.IntN(len(b))]
			p = proposal{e1: int32(h1.edge), s1: uint8(h1.side), e2: int32(h2.edge), s2: uint8(h2.side)}
			r.evalProposal(&p, sc, ms)
		}
		props = append(props, p)
	}
	r.marks <- ms
	r.props[s] = props
}

// evalProposal applies the serial loop's pre-checks and, if they pass,
// computes the proposal's exact delta against the round-start state.
// Read-only on shared state.
func (r *shardedRun) evalProposal(p *proposal, sc *evalScratch, ms *markSet) {
	st := r.st
	if p.e1 == p.e2 {
		return
	}
	i := st.endpoint(int(p.e1), int(p.s1))
	j := st.endpoint(int(p.e1), 1-int(p.s1))
	a := st.endpoint(int(p.e2), int(p.s2))
	b := st.endpoint(int(p.e2), 1-int(p.s2))
	p.i, p.j, p.a, p.b = int32(i), int32(j), int32(a), int32(b)
	if i == a || j == b {
		return
	}
	if r.forbid && (i == b || a == j || r.rows.get(int32(i), int32(b)) > 0 || r.rows.get(int32(a), int32(j)) > 0) {
		return
	}
	p.t0, p.k0 = int32(len(sc.touch)), int32(len(sc.kd))
	r.evalSwap(sc, ms, int32(i), int32(j), int32(a), int32(b))
	p.t1, p.k1 = int32(len(sc.touch)), int32(len(sc.kd))
	p.flags = propEvaluated
}

// commitRound applies the round's proposals serially, interleaving the
// shards position-by-position — a fixed order, so the result does not
// depend on how the propose phase was scheduled.
func (r *shardedRun) commitRound(stats *RewireStats) {
	ms := <-r.marks
	maxq := 0
	for _, q := range r.quotas {
		if q > maxq {
			maxq = q
		}
	}
	for pi := 0; pi < maxq; pi++ {
		for s := 0; s < r.shards; s++ {
			if pi < r.quotas[s] {
				r.commitOne(s, pi, ms, stats)
			}
		}
	}
	r.marks <- ms
}

// commitOne re-validates one proposal against the live state and applies
// it if the clustering distance strictly decreases. The precomputed delta
// is reused when no earlier commit of this round touched any of the four
// endpoints (it is then still exact); otherwise the swap is re-evaluated
// in place — the only serial evaluation work in the engine.
func (r *shardedRun) commitOne(s, pi int, ms *markSet, stats *RewireStats) {
	st := r.st
	p := &r.props[s][pi]
	stats.Attempts++
	if p.e1 == p.e2 {
		// Same edge drawn twice, or the zero proposal of a shard that ran
		// out of pairable halves mid-round. Either way: burn the attempt.
		return
	}
	var i, j, a, b int
	if r.estamp[p.e1] != r.round && r.estamp[p.e2] != r.round {
		// Neither edge was re-pointed this round, so the endpoints still
		// match the propose-phase snapshot and every pre-check verdict
		// stands. A proposal rejected before evaluation rejects again.
		if p.flags&propEvaluated == 0 {
			return
		}
		i, j, a, b = int(p.i), int(p.j), int(p.a), int(p.b)
		if r.stamp[i] != r.round && r.stamp[j] != r.round && r.stamp[a] != r.round && r.stamp[b] != r.round {
			// No endpoint's adjacency changed either: the precomputed
			// delta (and any forbid verdict) is still exact.
			sc := r.scratch[s]
			r.resolve(p, i, j, a, b, sc.touch[p.t0:p.t1], sc.kd[p.k0:p.k1], stats)
			return
		}
	} else {
		i = st.endpoint(int(p.e1), int(p.s1))
		j = st.endpoint(int(p.e1), 1-int(p.s1))
		a = st.endpoint(int(p.e2), int(p.s2))
		b = st.endpoint(int(p.e2), 1-int(p.s2))
		if st.deg[i] != st.deg[a] {
			// A re-pointed half landed in a different bucket; the pairing
			// no longer preserves the JDM.
			return
		}
		if i == a || j == b {
			return
		}
	}
	if r.forbid && (i == b || a == j || r.rows.get(int32(i), int32(b)) > 0 || r.rows.get(int32(a), int32(j)) > 0) {
		return
	}
	stats.Recomputed++
	sc := r.csc
	sc.touch = sc.touch[:0]
	sc.kd = sc.kd[:0]
	r.evalSwap(sc, ms, int32(i), int32(j), int32(a), int32(b))
	r.resolve(p, i, j, a, b, sc.touch, sc.kd, stats)
}

// resolve runs the accept test for a validated proposal and applies the
// swap when the clustering distance strictly decreases.
func (r *shardedRun) resolve(p *proposal, i, j, a, b int, touch []tDelta, kd []kDelta, stats *RewireStats) {
	st := r.st
	// The accept test: replay the serial loop's settle — term deltas
	// accumulated in ascending degree order (kd is sorted) so the float
	// sum has one fixed order.
	newSum := st.sum
	nt := r.newTerm[:0]
	for _, e := range kd {
		v := st.termWith(int(e.k), st.sumT[e.k]+e.d)
		nt = append(nt, v)
		newSum += v - st.term[e.k]
	}
	r.newTerm = nt
	if newSum < st.sum {
		for _, td := range touch {
			st.t[td.w] += td.d
		}
		for idx, e := range kd {
			st.sumT[e.k] += e.d
			st.term[e.k] = nt[idx]
		}
		st.sum = newSum
		degJ, degB := st.deg[j], st.deg[b]
		if i != j {
			r.rows.dec(int32(i), int32(j))
			r.rows.dec(int32(j), int32(i))
		}
		if a != b {
			r.rows.dec(int32(a), int32(b))
			r.rows.dec(int32(b), int32(a))
		}
		if i != b {
			r.rows.inc(int32(i), int32(b))
			r.rows.inc(int32(b), int32(i))
		}
		if a != j {
			r.rows.inc(int32(a), int32(j))
			r.rows.inc(int32(j), int32(a))
		}
		e1, s1 := int(p.e1), int(p.s1)
		e2, s2 := int(p.e2), int(p.s2)
		st.removeHalf(halfRef{e1, 1 - s1}, degJ)
		st.removeHalf(halfRef{e2, 1 - s2}, degB)
		st.setEndpoint(e1, 1-s1, b)
		st.setEndpoint(e2, 1-s2, j)
		st.placeHalf(halfRef{e1, 1 - s1}, degB)
		st.placeHalf(halfRef{e2, 1 - s2}, degJ)
		r.stamp[i], r.stamp[j], r.stamp[a], r.stamp[b] = r.round, r.round, r.round, r.round
		r.estamp[e1], r.estamp[e2] = r.round, r.round
		stats.Accepted++
	}
}

// add records one node's delta in both the per-node and per-degree
// accumulators.
func (sc *evalScratch) add(w, k int32, d int64) {
	sc.touch = append(sc.touch, tDelta{w, d})
	if !sc.inD[k] {
		sc.inD[k] = true
		sc.dirty = append(sc.dirty, k)
	}
	sc.ds[k] += d
}

// evalSwap appends the exact per-node (touch) and per-degree (kd) deltas
// of the swap (i,j)+(a,b) -> (i,b)+(a,j) to the scratch, never writing
// shared state — evaluations may run concurrently.
//
// For nodes outside the endpoint set {i,j,a,b} the four serial ops net to
// delta_w = (A_iw - A_aw)*(A_bw - A_jw), with the per-op common-neighbor
// sums cn1..cn4 recovered from the same products, so one sweep of the
// four rows (denseWalk, marking in ms) replaces the serial loop's four
// scans. The overlay corrections of half-applied ops only ever concern
// endpoint pairs, which the sweep skips; those go through a 4x4 matrix
// replaying the exact serial op order: remove(i,j), remove(a,b),
// add(i,b), add(a,j), each removal decrementing before its scan, each
// addition scanning before its increment.
//
// kd comes out sorted by degree with exact-zero deltas omitted; touch may
// repeat a node (entries sum).
func (r *shardedRun) evalSwap(sc *evalScratch, ms *markSet, i, j, a, b int32) {
	var nodes [4]int32
	nn := 0
	idx := func(x int32) int {
		for k := 0; k < nn; k++ {
			if nodes[k] == x {
				return k
			}
		}
		nodes[nn] = x
		nn++
		return nn - 1
	}
	ii := idx(i)
	ji := idx(j)
	ai := idx(a)
	bi := idx(b)

	op1, op2, op3, op4 := i != j, a != b, i != b, a != j
	// mat holds the endpoint-pair adjacencies, which the walk captures
	// during its row scans, plus the overlay of half-applied ops.
	var mat [4][4]int64
	cn1, cn2, cn3, cn4 := r.denseWalk(sc, ms, i, j, a, b, nodes, nn, op1, op2, op3, op4, &mat, ii, ji, ai, bi)
	deg := r.st.deg
	if nn == 4 && mat[ii][ai]|mat[ii][bi]|mat[ai][ji]|mat[ji][bi] == 0 {
		// No cross pair (i,a), (i,b), (a,j), (j,b) is adjacent, so every
		// endpoint-fixup product carries a zero factor — the always-set
		// pair adjacencies A(i,j), A(a,b) only ever multiply a cross
		// pair. Skip the overlay replay; the walk's cn values are final.
		if d := cn3 - cn1; d != 0 {
			sc.add(i, int32(deg[i]), d)
		}
		if d := cn4 - cn1; d != 0 {
			sc.add(j, int32(deg[j]), d)
		}
		if d := cn4 - cn2; d != 0 {
			sc.add(a, int32(deg[a]), d)
		}
		if d := cn3 - cn2; d != 0 {
			sc.add(b, int32(deg[b]), d)
		}
		sc.drain()
		return
	}
	opFix := func(ui, vi int, sign int64) int64 {
		var cn int64
		u, v := nodes[ui], nodes[vi]
		for k := 0; k < nn; k++ {
			w := nodes[k]
			if w == u || w == v {
				continue
			}
			pu, pv := mat[ui][k], mat[vi][k]
			if pu > 0 && pv > 0 {
				prod := pu * pv
				cn += prod
				sc.add(w, int32(deg[w]), sign*prod)
			}
		}
		return cn
	}
	if op1 {
		mat[ii][ji]--
		mat[ji][ii]--
		cn1 += opFix(ii, ji, -1)
	}
	if op2 {
		mat[ai][bi]--
		mat[bi][ai]--
		cn2 += opFix(ai, bi, -1)
	}
	if op3 {
		cn3 += opFix(ii, bi, +1)
		mat[ii][bi]++
		mat[bi][ii]++
	}
	if op4 {
		cn4 += opFix(ai, ji, +1)
		mat[ai][ji]++
		mat[ji][ai]++
	}
	if d := cn3 - cn1; d != 0 {
		sc.add(i, int32(deg[i]), d)
	}
	if d := cn4 - cn1; d != 0 {
		sc.add(j, int32(deg[j]), d)
	}
	if d := cn4 - cn2; d != 0 {
		sc.add(a, int32(deg[a]), d)
	}
	if d := cn3 - cn2; d != 0 {
		sc.add(b, int32(deg[b]), d)
	}
	sc.drain()
}

// drain flushes the per-degree accumulator into a degree-sorted kd span.
// Insertion sort: the dirty set is a handful of degrees.
func (sc *evalScratch) drain() {
	dirty := sc.dirty
	for x := 1; x < len(dirty); x++ {
		for y := x; y > 0 && dirty[y] < dirty[y-1]; y-- {
			dirty[y], dirty[y-1] = dirty[y-1], dirty[y]
		}
	}
	for _, k := range dirty {
		if d := sc.ds[k]; d != 0 {
			sc.kd = append(sc.kd, kDelta{k, d})
		}
		sc.ds[k] = 0
		sc.inD[k] = false
	}
	sc.dirty = sc.dirty[:0]
}

// denseWalk is the mark-and-probe sweep: it intersects the unions
// N(i)|N(a) and N(b)|N(j) by marking the V-side rows (N(b), N(j)) in the
// epoch-stamped per-node mark array and probing the marks while scanning
// the U-side rows (N(i), N(a)) — four short linear scans with one
// L1-resident random access each. For every hit w outside the endpoint
// set it emits delta_w and accumulates the four per-op common-neighbor
// sums. The scans also capture the six endpoint-pair adjacencies as they
// stream by, filling mat for free (aliased endpoints leave their diagonal
// entries zero: a row never contains its own node). Deltas are integers,
// so emission order never reaches the degree-sorted kd span.
func (r *shardedRun) denseWalk(sc *evalScratch, ms *markSet, i, j, a, b int32, nodes [4]int32, nn int, op1, op2, op3, op4 bool, mat *[4][4]int64, ii, ji, ai, bi int) (cn1, cn2, cn3, cn4 int64) {
	sr := r.rows
	ms.epoch++
	if ms.epoch == 0 {
		clear(ms.vm)
		ms.epoch = 1
	}
	cur := ms.epoch
	vm := ms.vm
	var aij, aia, aib, aaj, ajb, aab int64
	o, l := sr.off[b], int(sr.ln[b])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		c := sr.cnt[x]
		vm[w] = vmark{stamp: cur, b: c}
		if w == j {
			ajb = int64(c)
		}
		if w == i {
			aib = int64(c)
		}
		if w == a {
			aab = int64(c)
		}
	}
	o, l = sr.off[j], int(sr.ln[j])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		c := sr.cnt[x]
		if vm[w].stamp == cur {
			vm[w].j = c
		} else {
			vm[w] = vmark{stamp: cur, j: c}
		}
		if w == i {
			aij = int64(c)
		}
		if w == a {
			aaj = int64(c)
		}
	}
	ul := ms.ul[:0]
	o, l = sr.off[i], int(sr.ln[i])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		if w == a {
			aia = int64(sr.cnt[x])
		}
		if vm[w].stamp == cur {
			ul = append(ul, uline{w, sr.cnt[x], 0})
		}
	}
	o, l = sr.off[a], int(sr.ln[a])
	for x := o; x < o+l; x++ {
		if w := sr.nbr[x]; vm[w].stamp == cur {
			hit := false
			for t := range ul {
				if ul[t].w == w {
					ul[t].aw = sr.cnt[x]
					hit = true
					break
				}
			}
			if !hit {
				ul = append(ul, uline{w, 0, sr.cnt[x]})
			}
		}
	}
	ms.ul = ul
	set := func(x, y int, v int64) {
		if x != y {
			mat[x][y] = v
			mat[y][x] = v
		}
	}
	set(ii, ji, aij)
	set(ii, ai, aia)
	set(ii, bi, aib)
	set(ai, ji, aaj)
	set(ji, bi, ajb)
	set(ai, bi, aab)
	n0, n1, n2, n3 := nodes[0], int32(-1), int32(-1), int32(-1)
	if nn > 1 {
		n1 = nodes[1]
	}
	if nn > 2 {
		n2 = nodes[2]
	}
	if nn > 3 {
		n3 = nodes[3]
	}
	deg := r.st.deg
	for _, e := range ul {
		w := e.w
		if w == n0 || w == n1 || w == n2 || w == n3 {
			continue
		}
		iw, aw := int64(e.iw), int64(e.aw)
		bw, jw := int64(vm[w].b), int64(vm[w].j)
		pij, pab, pib, paj := iw*jw, aw*bw, iw*bw, aw*jw
		var d int64
		if op1 {
			cn1 += pij
			d -= pij
		}
		if op2 {
			cn2 += pab
			d -= pab
		}
		if op3 {
			cn3 += pib
			d += pib
		}
		if op4 {
			cn4 += paj
			d += paj
		}
		if d != 0 {
			sc.add(w, int32(deg[w]), d)
		}
	}
	return cn1, cn2, cn3, cn4
}
