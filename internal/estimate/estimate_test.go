package estimate

import (
	"math"
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x5151)) }

func walkOn(t *testing.T, g *graph.Graph, steps int, seed uint64) *Walk {
	t.Helper()
	c, err := sampling.RandomWalkSteps(sampling.NewGraphAccess(g), 0, steps, rng(seed))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalk(c)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWalkValidation(t *testing.T) {
	if _, err := NewWalk(mustNewCrawl([]int{1, 2}, [][]int{{2}, {1}}, []int{1, 2})); err == nil {
		t.Error("want error for short walk")
	}
	if _, err := NewWalk(mustNewCrawl([]int{0, 1}, [][]int{{1}, nil}, []int{0, 1, 0})); err == nil {
		t.Error("want error for a walk through an isolated node")
	}
}

func TestLag(t *testing.T) {
	g := gen.HolmeKim(100, 2, 0.3, rng(1))
	w := walkOn(t, g, 1000, 2)
	if got := w.Lag(); got != 25 {
		t.Fatalf("Lag for r=1000: got %d want 25", got)
	}
	w2 := walkOn(t, g, 10, 2)
	if got := w2.Lag(); got != 1 {
		t.Fatalf("Lag must clamp to 1, got %d", got)
	}
}

// --- Naive reference implementations (straight from the formulas) ---

func naiveNumNodes(w *Walk, m int) (float64, int) {
	r := w.R()
	num := 0.0
	coll := 0
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if abs(i-j) < m {
				continue
			}
			num += float64(w.Deg[i]) / float64(w.Deg[j])
			if w.Seq[i] == w.Seq[j] {
				coll++
			}
		}
	}
	den := float64(coll)
	if coll == 0 {
		den = 1
	}
	return num / den, coll
}

// naivePhiIE computes the full ordered matrix Phi(k,k') straight from the
// formula, then returns the canonical (k<=k') entries, checking symmetry.
func naivePhiIE(t *testing.T, w *Walk, m int) map[DegreePair]float64 {
	t.Helper()
	r := w.R()
	full := make(map[[2]int]float64)
	absI := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if abs(i-j) < m {
				continue
			}
			absI++
			a := w.multiplicity(w.steps[i], w.steps[j])
			if a == 0 {
				continue
			}
			full[[2]int{w.Deg[i], w.Deg[j]}] += float64(a)
		}
	}
	out := make(map[DegreePair]float64)
	//sgr:nondet-ok Pair is injective on symmetric full-matrix keys, so each iteration writes its own slot
	for kk, v := range full {
		k, kp := kk[0], kk[1]
		if sym := full[[2]int{kp, k}]; math.Abs(sym-v) > 1e-9 {
			t.Fatalf("naive Phi asymmetric at (%d,%d): %v vs %v", k, kp, v, sym)
		}
		out[Pair(k, kp)] = v / (float64(k) * float64(kp) * absI)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestNumNodesMatchesNaive(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.4, rng(3))
	w := walkOn(t, g, 400, 4)
	for _, m := range []int{1, 5, 10, 40} {
		fast, collFast := w.NumNodes(m)
		slow, collSlow := naiveNumNodes(w, m)
		if collFast != collSlow {
			t.Fatalf("m=%d: collisions fast=%d naive=%d", m, collFast, collSlow)
		}
		if math.Abs(fast-slow) > 1e-6*math.Max(1, math.Abs(slow)) {
			t.Fatalf("m=%d: n-hat fast=%v naive=%v", m, fast, slow)
		}
	}
}

func TestJDDIEMatchesNaive(t *testing.T) {
	g := gen.HolmeKim(200, 3, 0.4, rng(5))
	w := walkOn(t, g, 300, 6)
	for _, m := range []int{1, 7, 30} {
		// Compare raw Phi by passing nHat=avgDegHat=1.
		fast := w.JDDIE(1, 1, m)
		slow := naivePhiIE(t, w, m)
		if len(fast) != len(slow) {
			t.Fatalf("m=%d: support sizes differ: %d vs %d", m, len(fast), len(slow))
		}
		for kk, v := range slow {
			if math.Abs(fast[kk]-v) > 1e-9*math.Max(1, v) {
				t.Fatalf("m=%d: Phi(%d,%d) fast=%v naive=%v", m, kk.K, kk.Kp, fast[kk], v)
			}
		}
	}
}

func TestAvgDegreeOnRegularGraph(t *testing.T) {
	// On a k-regular graph the estimator is exact for any walk.
	g := gen.WattsStrogatz(200, 6, 0, rng(7))
	w := walkOn(t, g, 100, 8)
	if got := w.AvgDegree(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("avg degree on 6-regular: got %v", got)
	}
}

func TestAvgDegreeConverges(t *testing.T) {
	g := gen.HolmeKim(2000, 4, 0.5, rng(9))
	truth := g.AvgDegree()
	w := walkOn(t, g, 8000, 10)
	got := w.AvgDegree()
	if relErr(got, truth) > 0.1 {
		t.Fatalf("avg degree: got %v want ~%v", got, truth)
	}
}

func TestNumNodesConverges(t *testing.T) {
	g := gen.HolmeKim(1500, 4, 0.5, rng(11))
	w := walkOn(t, g, 6000, 12)
	nHat, coll := w.NumNodes(w.Lag())
	if coll == 0 {
		t.Fatal("expected collisions on a long walk")
	}
	if relErr(nHat, float64(g.N())) > 0.25 {
		t.Fatalf("n-hat: got %v want ~%d", nHat, g.N())
	}
}

func TestDegreeDistSumsToOneAndConverges(t *testing.T) {
	g := gen.HolmeKim(1500, 3, 0.5, rng(13))
	w := walkOn(t, g, 6000, 14)
	dist := w.DegreeDist()
	sum := 0.0
	//sgr:nondet-ok float-order tail of the sum is far below the 1e-9 assertion tolerance
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("degree dist sums to %v", sum)
	}
	// L1 distance to the true distribution should be modest.
	truth := trueDegreeDist(g)
	l1 := 0.0
	//sgr:nondet-ok float-order tail of the L1 sum is far below the 0.35 assertion threshold
	for k, p := range truth {
		l1 += math.Abs(dist[k] - p)
	}
	//sgr:nondet-ok float-order tail of the L1 sum is far below the 0.35 assertion threshold
	for k, p := range dist {
		if _, ok := truth[k]; !ok {
			l1 += p
		}
	}
	if l1 > 0.35 {
		t.Fatalf("degree dist L1 = %v too large", l1)
	}
}

func trueDegreeDist(g *graph.Graph) map[int]float64 {
	out := make(map[int]float64)
	for u := 0; u < g.N(); u++ {
		out[g.Degree(u)]++
	}
	for k := range out {
		out[k] /= float64(g.N())
	}
	return out
}

func trueJDD(g *graph.Graph) map[DegreePair]float64 {
	out := make(map[DegreePair]float64)
	twoM := 2 * float64(g.M())
	//sgr:nondet-ok Pair is injective on canonical JDM keys, so each iteration writes its own slot
	for kk, c := range g.JointDegreeMatrix() {
		mu := 1.0
		if kk[0] == kk[1] {
			mu = 2.0
		}
		out[Pair(kk[0], kk[1])] = mu * float64(c) / twoM
	}
	return out
}

func TestJDDTESumsToOne(t *testing.T) {
	g := gen.HolmeKim(500, 3, 0.5, rng(15))
	w := walkOn(t, g, 1000, 16)
	te := w.JDDTE()
	// Full-matrix sum: off-diagonal entries count twice.
	sum := 0.0
	//sgr:nondet-ok float-order tail of the sum is far below the 1e-9 assertion tolerance
	for kk, v := range te {
		if kk.K == kk.Kp {
			sum += v
		} else {
			sum += 2 * v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("TE full-matrix sum = %v want 1", sum)
	}
}

func TestJDDHybridConverges(t *testing.T) {
	g := gen.HolmeKim(1200, 3, 0.5, rng(17))
	w := walkOn(t, g, 10000, 18)
	nHat, _ := w.NumNodes(w.Lag())
	kHat := w.AvgDegree()
	hyb := w.JDDHybrid(nHat, kHat, w.Lag())
	truth := trueJDD(g)
	l1, norm := 0.0, 0.0
	//sgr:nondet-ok float-order tail of the L1 sums is far below the 0.8 assertion threshold
	for kk, p := range truth {
		mult := 2.0
		if kk.K == kk.Kp {
			mult = 1.0
		}
		l1 += mult * math.Abs(hyb[kk]-p)
		norm += mult * p
	}
	//sgr:nondet-ok float-order tail of the L1 sum is far below the 0.8 assertion threshold
	for kk, p := range hyb {
		if _, ok := truth[kk]; !ok {
			mult := 2.0
			if kk.K == kk.Kp {
				mult = 1.0
			}
			l1 += mult * p
		}
	}
	if l1/norm > 0.8 {
		t.Fatalf("hybrid JDD normalized L1 = %v too large", l1/norm)
	}
}

// TestJointDegreeEstimatorUnbiasedTE verifies Appendix A empirically for the
// TE part: averaged over many walks, P-hat_TE(k,k') approaches P(k,k').
func TestJointDegreeEstimatorUnbiasedTE(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, rng(19))
	truth := trueJDD(g)
	acc := make(map[DegreePair]float64)
	const runs = 60
	for i := 0; i < runs; i++ {
		w := walkOn(t, g, 2500, uint64(100+i))
		for kk, v := range w.JDDTE() {
			acc[kk] += v / runs
		}
	}
	// Compare the heaviest true entries.
	for kk, p := range truth {
		if p < 0.01 {
			continue
		}
		if relErr(acc[kk], p) > 0.2 {
			t.Errorf("TE biased at (%d,%d): avg=%v truth=%v", kk.K, kk.Kp, acc[kk], p)
		}
	}
}

func TestDegreeClusteringRange(t *testing.T) {
	g := gen.HolmeKim(800, 3, 0.8, rng(21))
	w := walkOn(t, g, 3000, 22)
	cl := w.DegreeClustering()
	if len(cl) == 0 {
		t.Fatal("no clustering estimates")
	}
	for k, c := range cl {
		if c < 0 || c > 1 {
			t.Errorf("c(%d) = %v out of [0,1]", k, c)
		}
		if k == 1 && c != 0 {
			t.Errorf("c(1) must be 0, got %v", c)
		}
	}
}

func TestDegreeClusteringDetectsTriangles(t *testing.T) {
	// Clique: clustering ~1 (the estimator is unbiased, not exact, because
	// the walk may backtrack: prev == next contributes A = 0). Star: 0.
	clique := graph.New(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			clique.AddEdge(i, j)
		}
	}
	w := walkOn(t, clique, 5000, 23)
	for k, c := range w.DegreeClustering() {
		if math.Abs(c-1) > 0.05 {
			t.Errorf("clique c(%d) = %v want ~1", k, c)
		}
	}
	star := graph.New(6)
	for i := 1; i < 6; i++ {
		star.AddEdge(0, i)
	}
	w2 := walkOn(t, star, 500, 24)
	for k, c := range w2.DegreeClustering() {
		if c != 0 {
			t.Errorf("star c(%d) = %v want 0", k, c)
		}
	}
}

func TestAllBundlesEverything(t *testing.T) {
	g := gen.HolmeKim(600, 3, 0.5, rng(25))
	w := walkOn(t, g, 2000, 26)
	e := All(w)
	if e.N <= 0 || e.AvgDeg <= 0 {
		t.Fatalf("bad scalar estimates: %+v", e)
	}
	if len(e.DegreeDist) == 0 || len(e.JDD) == 0 || len(e.Clustering) == 0 {
		t.Fatal("missing distribution estimates")
	}
	if e.MaxDegree() <= 0 {
		t.Fatal("MaxDegree must be positive")
	}
	if e.Lag != w.Lag() {
		t.Fatal("Lag mismatch")
	}
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}
