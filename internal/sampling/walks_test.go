package sampling

import (
	"math"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// fakeN overrides NumNodes, letting tests pin the query budget while
// walking a larger hidden graph.
type fakeN struct {
	Access
	n int
}

func (f fakeN) NumNodes() int { return f.n }

func TestBudgetFromFractionRounds(t *testing.T) {
	cases := []struct {
		fraction float64
		n        int
		want     int
	}{
		// Truncation-loss cases: fraction*N lands just below the integer
		// in float64 (e.g. 0.7*90 = 62.999999999999993), and int() used to
		// silently drop one query from the protocol's budget.
		{0.7, 90, 63},
		{0.7, 170, 119},
		{0.7, 330, 231},
		// Classic float-representation fractions whose products round back
		// to the exact integer; rounding must not disturb them.
		{0.1, 230, 23},
		{0.1, 500, 50},
		{0.03, 700, 21},
		{0.03, 1000, 30},
		{0.005, 4600, 23},
		{0.07, 100, 7},
		{1.0, 17, 17},
		// Sub-1 budgets clamp to a single query.
		{0.004, 100, 1},
	}
	for _, c := range cases {
		a := fakeN{n: c.n}
		got, err := budgetFromFraction(a, c.fraction)
		if err != nil {
			t.Fatalf("budgetFromFraction(%v, %d): %v", c.fraction, c.n, err)
		}
		if got != c.want {
			t.Errorf("budgetFromFraction(%v, %d) = %d, want %d", c.fraction, c.n, got, c.want)
		}
	}
	for _, bad := range []float64{0, -0.1, 1.0001} {
		if _, err := budgetFromFraction(fakeN{n: 10}, bad); err == nil {
			t.Errorf("fraction %v: want error", bad)
		}
	}
}

// starGraph returns a star: node 0 is a leaf, node 1 the center joined to
// leaves 0 and 2..k.
func starGraph(k int) *graph.Graph {
	g := graph.New(k + 1)
	g.AddEdge(0, 1)
	for v := 2; v <= k; v++ {
		g.AddEdge(1, v)
	}
	return g
}

// TestMHDoesNotRecordUnacceptedProposal is the regression test for the
// budget-exhaustion bug: when querying the proposal consumes the last
// query, the proposal was never subjected to the acceptance test and must
// not appear in the recorded chain.
func TestMHDoesNotRecordUnacceptedProposal(t *testing.T) {
	g := starGraph(100) // leaf 0 has degree 1, center 1 has degree 100
	a := fakeN{Access: NewGraphAccess(g), n: 2}
	// Budget 2: querying the proposal (the center) exhausts it before the
	// acceptance test — which would accept with probability 1/100 — runs.
	c, err := MetropolisHastingsWalk(a, 0, 1.0, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQueried() != 2 {
		t.Fatalf("queried %d want 2 (the proposal query is still counted)", c.NumQueried())
	}
	if len(c.Walk()) != 1 || c.Walk()[0] != 0 {
		t.Fatalf("walk %v: must record only the seed, not the unaccepted proposal", c.Walk())
	}
}

// TestMHLastStepPassedAcceptance runs the budget-exhaustion scenario over
// many RNG streams. The graph is a 2-node path feeding a high-degree hub:
// the hub can only ever be queried as a proposal, and that query always
// exhausts the budget — so the hub must never appear as the final recorded
// step (with the old recording bug it appeared on every stream).
func TestMHLastStepPassedAcceptance(t *testing.T) {
	const hub = 2
	g := graph.New(103)
	g.AddEdge(0, 1)
	g.AddEdge(1, hub)
	for v := 3; v < 103; v++ {
		g.AddEdge(hub, v)
	}
	for s := uint64(0); s < 300; s++ {
		// Budget 3: exhausted exactly when the hub is first queried.
		a := fakeN{Access: NewGraphAccess(g), n: 3}
		c, err := MetropolisHastingsWalk(a, 0, 1.0, rng(s))
		if err != nil {
			t.Fatal(err)
		}
		if c.NumQueried() != 3 {
			t.Fatalf("seed %d: queried %d want 3", s, c.NumQueried())
		}
		if last := c.Walk()[len(c.Walk())-1]; last == hub {
			t.Fatalf("seed %d: walk ends at the hub, whose proposal query exhausted the budget before the acceptance test ran", s)
		}
	}
}

func TestMetropolisHastingsWalkSteps(t *testing.T) {
	g := testGraph(t)
	c, err := MetropolisHastingsWalkSteps(NewGraphAccess(g), 0, 400, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Walk()) != 400 {
		t.Fatalf("walk length %d want 400", len(c.Walk()))
	}
	for i := 0; i+1 < len(c.Walk()); i++ {
		if c.Walk()[i] != c.Walk()[i+1] && !g.HasEdge(c.Walk()[i], c.Walk()[i+1]) {
			t.Fatalf("step %d: %d-%d is neither a self-loop nor an edge", i, c.Walk()[i], c.Walk()[i+1])
		}
	}
	if _, err := MetropolisHastingsWalkSteps(NewGraphAccess(g), 0, 0, rng(2)); err == nil {
		t.Fatal("want error for zero steps")
	}
}

// TestMHWalkUniformVisitsChiSquare checks the defining property of the MH
// walk — a uniform stationary distribution over nodes — on a small fixed
// graph with strongly heterogeneous degrees, via a chi-square test of the
// empirical visit counts (fixed seed, thinned to damp autocorrelation).
func TestMHWalkUniformVisitsChiSquare(t *testing.T) {
	// K4 on {0,1,2,3} plus a path 3-4-5 and leaves 5-6, 5-7: degrees 1..4.
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {4, 5}, {5, 6}, {5, 7}} {
		g.AddEdge(e[0], e[1])
	}
	const steps = 400000
	c, err := MetropolisHastingsWalkSteps(NewGraphAccess(g), 0, steps, rng(42))
	if err != nil {
		t.Fatal(err)
	}
	const burn = 2000
	const thin = 5
	counts := make([]float64, g.N())
	samples := 0.0
	for i := burn; i < len(c.Walk()); i += thin {
		counts[c.Walk()[i]]++
		samples++
	}
	expected := samples / float64(g.N())
	chi2 := 0.0
	for u, obs := range counts {
		d := obs - expected
		chi2 += d * d / expected
		frac := obs / samples
		if math.Abs(frac-1.0/float64(g.N())) > 0.02 {
			t.Errorf("node %d visit fraction %.4f deviates from uniform %.4f", u, frac, 1.0/float64(g.N()))
		}
	}
	// df = 7; the 0.999 quantile is ~24.3. Thinning leaves residual
	// autocorrelation, so allow a generous margin — a biased walk (e.g.
	// degree-proportional visits) scores in the thousands here.
	if chi2 > 50 {
		t.Fatalf("chi-square %.1f too large: MH visits are not uniform", chi2)
	}

	// Contrast: the simple random walk on the same graph is degree-biased
	// and must fail the same test, proving the statistic has power.
	cs, err := RandomWalkSteps(NewGraphAccess(g), 0, steps, rng(43))
	if err != nil {
		t.Fatal(err)
	}
	srw := make([]float64, g.N())
	n := 0.0
	for i := burn; i < len(cs.Walk()); i += thin {
		srw[cs.Walk()[i]]++
		n++
	}
	exp := n / float64(g.N())
	chiSRW := 0.0
	for _, obs := range srw {
		d := obs - exp
		chiSRW += d * d / exp
	}
	if chiSRW < 50 {
		t.Fatalf("simple random walk chi-square %.1f unexpectedly uniform: test has no power", chiSRW)
	}
}

// TestNonBacktrackingMultiEdgeLeafBacktracks: node 1 hangs off node 0 by
// two parallel edges (degree 2, one distinct neighbor). Entering it forces
// a backtrack, which the walker must detect without hanging.
func TestNonBacktrackingMultiEdgeLeafBacktracks(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	for s := uint64(0); s < 64; s++ {
		c, err := NonBacktrackingWalk(NewGraphAccess(g), 0, 1.0, rng(s))
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i < len(c.Walk()); i++ {
			if c.Walk()[i] == c.Walk()[i-2] {
				mid := c.Walk()[i-1]
				if g.Degree(mid) > 1 && !allEqual(g.Neighbors(mid), c.Walk()[i-2]) {
					t.Fatalf("seed %d: unforced backtrack at step %d via node %d", s, i, mid)
				}
			}
		}
		if len(c.Walk()) >= 3 && c.Walk()[0] == 0 && c.Walk()[1] == 1 {
			if c.Walk()[2] != 0 {
				t.Fatalf("seed %d: walk %v must backtrack from the multi-edge leaf", s, c.Walk())
			}
			return // forced-backtrack case exercised
		}
	}
	t.Fatal("no RNG stream entered the multi-edge leaf; strengthen the test setup")
}

// TestNonBacktrackingBacktracksOnlyWhenForced checks the walker on a
// multigraph with parallel edges: a backtrack may occur only at degree-1
// nodes or multi-edge leaves (all incident edges lead to the predecessor).
func TestNonBacktrackingBacktracksOnlyWhenForced(t *testing.T) {
	g := gen.HolmeKim(200, 2, 0.4, rng(21))
	// Duplicate some edges so multi-edges exist on the walk's path.
	for _, e := range g.Edges()[:40] {
		g.AddEdge(e.U, e.V)
	}
	c, err := NonBacktrackingWalk(NewGraphAccess(g), 0, 0.5, rng(22))
	if err != nil {
		t.Fatal(err)
	}
	backtracks := 0
	for i := 2; i < len(c.Walk()); i++ {
		if c.Walk()[i] != c.Walk()[i-2] {
			continue
		}
		backtracks++
		mid := c.Walk()[i-1]
		if g.Degree(mid) > 1 && !allEqual(g.Neighbors(mid), c.Walk()[i-2]) {
			t.Fatalf("unforced backtrack at step %d via node %d (degree %d)", i, mid, g.Degree(mid))
		}
	}
	t.Logf("walk length %d, forced backtracks %d", len(c.Walk()), backtracks)
}
