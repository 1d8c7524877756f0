package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/sampling"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xfeed)) }

// crawlOn random-walks g until fraction of nodes are queried.
func crawlOn(t *testing.T, g *graph.Graph, fraction float64, seed uint64) *sampling.Crawl {
	t.Helper()
	c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, fraction, rng(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testOriginal(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	return gen.HolmeKim(1000, 4, 0.5, rng(seed))
}

func checkRealizes(t *testing.T, res *Result) {
	t.Helper()
	dv, err := dkseries.FromGraph(res.Graph)
	if err != nil {
		t.Fatalf("restored graph: %v", err)
	}
	for k := 1; k <= res.TargetDV.KMax(); k++ {
		got := 0
		if k <= dv.KMax() {
			got = dv[k]
		}
		if got != res.TargetDV[k] {
			t.Fatalf("degree vector not realized at k=%d: got %d want %d", k, got, res.TargetDV[k])
		}
	}
	gj := dkseries.JDMFromGraph(res.Graph)
	for ky, c := range res.TargetJDM.Cells() {
		if gj.Get(ky[0], ky[1]) != c {
			t.Fatalf("JDM not realized at %v: got %d want %d", ky, gj.Get(ky[0], ky[1]), c)
		}
	}
	if gj.TotalEdges() != res.TargetJDM.TotalEdges() {
		t.Fatalf("edge totals differ: %d vs %d", gj.TotalEdges(), res.TargetJDM.TotalEdges())
	}
}

func TestRestoreRealizesTargetsAndContainsSubgraph(t *testing.T) {
	g := testOriginal(t, 1)
	c := crawlOn(t, g, 0.10, 2)
	res, err := Restore(c, Options{RC: 10, Rand: rng(3)})
	if err != nil {
		t.Fatal(err)
	}
	checkRealizes(t, res)
	if res.Subgraph == nil {
		t.Fatal("proposed method must retain its subgraph")
	}
	// Every subgraph edge must exist in the restored graph (same IDs).
	for _, e := range res.Subgraph.Graph.Edges() {
		if !res.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("subgraph edge (%d,%d) missing from restored graph", e.U, e.V)
		}
	}
	// Size sanity: n-tilde should be within a factor ~2 of the truth for a
	// 10% walk on this graph.
	nt := float64(res.Graph.N())
	if nt < 0.4*float64(g.N()) || nt > 2.5*float64(g.N()) {
		t.Fatalf("restored size %v wildly off from %d", nt, g.N())
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreGjokaRealizesTargets(t *testing.T) {
	g := testOriginal(t, 4)
	c := crawlOn(t, g, 0.10, 5)
	res, err := RestoreGjoka(c, Options{RC: 10, Rand: rng(6)})
	if err != nil {
		t.Fatal(err)
	}
	checkRealizes(t, res)
	if res.Subgraph != nil {
		t.Fatal("Gjoka method must not use the subgraph")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRequiresRand(t *testing.T) {
	g := testOriginal(t, 7)
	c := crawlOn(t, g, 0.05, 8)
	if _, err := Restore(c, Options{}); err == nil {
		t.Fatal("want error without Rand")
	}
}

func TestRestoreRejectsNonWalkCrawl(t *testing.T) {
	g := testOriginal(t, 9)
	bc, err := sampling.BFS(sampling.NewGraphAccess(g), 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bc, Options{Rand: rng(10)}); err == nil {
		t.Fatal("want error for crawl without walk sequence")
	}
}

func TestRestoreSkipRewiring(t *testing.T) {
	g := testOriginal(t, 11)
	c := crawlOn(t, g, 0.08, 12)
	res, err := Restore(c, Options{SkipRewiring: true, Rand: rng(13)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RewireStats.Attempts != 0 || res.RewireTime != 0 {
		t.Fatal("SkipRewiring must skip phase 4")
	}
	checkRealizes(t, res)
}

func TestRestoreRewiringImprovesClustering(t *testing.T) {
	g := gen.HolmeKim(800, 4, 0.8, rng(14))
	c := crawlOn(t, g, 0.10, 15)
	res, err := Restore(c, Options{RC: 25, Rand: rng(16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RewireStats.FinalL1 >= res.RewireStats.InitialL1 {
		t.Fatalf("rewiring did not improve clustering distance: %v -> %v",
			res.RewireStats.InitialL1, res.RewireStats.FinalL1)
	}
}

func TestRestoreDeterministic(t *testing.T) {
	g := testOriginal(t, 17)
	c := crawlOn(t, g, 0.06, 18)
	a, err := Restore(c, Options{RC: 5, Rand: rng(19)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restore(c, Options{RC: 5, Rand: rng(19)})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed, different edge %d", i)
		}
	}
}

// TestRestoreTraceZeroNondeterminism is the observability acceptance gate
// at the pipeline layer: attaching a Trace changes not one output byte, and
// the captured spans are ordered phase records covering the run.
func TestRestoreTraceZeroNondeterminism(t *testing.T) {
	g := testOriginal(t, 17)
	c := crawlOn(t, g, 0.06, 18)
	plain, err := Restore(c, Options{RC: 5, Rand: rng(19)})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("restore-test")
	traced, err := Restore(c, Options{RC: 5, Rand: rng(19), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := plain.Graph.Edges(), traced.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("tracing changed the edge count: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("tracing changed edge %d", i)
		}
	}

	spans := tr.Spans()
	byName := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, want := range []string{
		"estimate", "subgraph", "phase1_degree_vector", "phase2_jdm",
		"phase3_construct", "phase4_rewire", "rewire/propose", "rewire/commit",
	} {
		sp, ok := byName[want]
		if !ok {
			t.Fatalf("trace missing span %q (got %d spans)", want, len(spans))
		}
		if sp.StartUS < 0 || sp.DurUS < 0 {
			t.Fatalf("span %q has negative timing: %+v", want, sp)
		}
	}
	// Phase spans appear in pipeline order.
	order := []string{"estimate", "subgraph", "phase1_degree_vector",
		"phase2_jdm", "phase3_construct", "phase4_rewire"}
	for i := 1; i < len(order); i++ {
		if byName[order[i]].StartUS < byName[order[i-1]].StartUS {
			t.Fatalf("span %q starts before %q", order[i], order[i-1])
		}
	}
	// The aggregate rewire timers fold thousands of rounds into two spans;
	// both must have seen every round.
	if byName["rewire/propose"].Count == 0 || byName["rewire/commit"].Count == 0 {
		t.Fatalf("rewire round timers recorded no episodes: propose=%d commit=%d",
			byName["rewire/propose"].Count, byName["rewire/commit"].Count)
	}
}

// TestPhaseClosesSpanOnError: a pipeline phase that fails still closes
// its span with the time it ran — restored serves the traces of failed
// jobs — and a cancelled context fails the phase before its span opens.
func TestPhaseClosesSpanOnError(t *testing.T) {
	tr := obs.NewTrace("phase-test")
	boom := errors.New("boom")
	err := Options{Trace: tr}.phase("failing", func() error {
		time.Sleep(2 * time.Millisecond)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("phase error = %v, want %v", err, boom)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "failing" {
		t.Fatalf("spans = %+v, want one \"failing\" span", spans)
	}
	if spans[0].DurUS < 1000 {
		t.Fatalf("failed phase span recorded %dus, want at least 1000", spans[0].DurUS)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = Options{Trace: tr, Ctx: ctx}.phase("cancelled", func() error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("cancelled phase: err = %v, ran = %v", err, ran)
	}
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("a cancelled phase opened a span: %d spans", n)
	}
}

func TestRestorePreservesQueriedDegreesExactly(t *testing.T) {
	// Lemma 1 + phase 3: queried nodes must end with their true degree.
	g := testOriginal(t, 20)
	c := crawlOn(t, g, 0.08, 21)
	res, err := Restore(c, Options{RC: 5, Rand: rng(22)})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Subgraph
	for i := 0; i < sub.NumQueried; i++ {
		orig := sub.Nodes[i]
		if res.Graph.Degree(i) != g.Degree(orig) {
			t.Fatalf("queried node %d: restored degree %d != true %d",
				orig, res.Graph.Degree(i), g.Degree(orig))
		}
	}
	// Visible nodes end with degree >= their subgraph degree.
	for i := sub.NumQueried; i < sub.Graph.N(); i++ {
		if res.Graph.Degree(i) < sub.Graph.Degree(i) {
			t.Fatalf("visible node %d lost degree", i)
		}
	}
}

func TestRestoreAcrossSeedsNeverViolatesConditions(t *testing.T) {
	// Property-style sweep: many graph/walk/seed combinations; phases must
	// always produce valid, realizable targets.
	for trial := 0; trial < 8; trial++ {
		seed := uint64(100 + trial)
		g := gen.HolmeKim(300+50*trial, 2+trial%3, 0.3+0.05*float64(trial), rng(seed))
		c := crawlOn(t, g, 0.05+0.02*float64(trial%3), seed+1)
		res, err := Restore(c, Options{RC: 2, Rand: rng(seed + 2)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRealizes(t, res)
		gj, err := RestoreGjoka(c, Options{RC: 2, Rand: rng(seed + 3)})
		if err != nil {
			t.Fatalf("trial %d gjoka: %v", trial, err)
		}
		checkRealizes(t, gj)
	}
}

func TestTargetsApproximateEstimates(t *testing.T) {
	// Without the subgraph-driven modification steps (Gjoka variant), the
	// adjusted targets must track the raw estimates closely — that is the
	// point of the minimal-error adjustments. The proposed method's targets
	// may legitimately exceed a low n-hat because DV-3 forces the target to
	// cover every subgraph node.
	g := testOriginal(t, 30)
	c := crawlOn(t, g, 0.10, 31)
	res, err := RestoreGjoka(c, Options{SkipRewiring: true, Rand: rng(32)})
	if err != nil {
		t.Fatal(err)
	}
	est := res.Estimates
	nTarget := float64(res.TargetDV.NumNodes())
	if math.Abs(nTarget-est.N)/est.N > 0.3 {
		t.Errorf("target n %v far from estimate %v", nTarget, est.N)
	}
	kTarget := float64(res.TargetDV.DegreeSum()) / nTarget
	if math.Abs(kTarget-est.AvgDeg)/est.AvgDeg > 0.3 {
		t.Errorf("target avg degree %v far from estimate %v", kTarget, est.AvgDeg)
	}
	// The proposed method's target must be at least the subgraph size.
	prop, err := Restore(c, Options{SkipRewiring: true, Rand: rng(33)})
	if err != nil {
		t.Fatal(err)
	}
	if prop.TargetDV.NumNodes() < prop.Subgraph.Graph.N() {
		t.Errorf("proposed target n %d below subgraph size %d",
			prop.TargetDV.NumNodes(), prop.Subgraph.Graph.N())
	}
}

func TestPhase1DirectInvariants(t *testing.T) {
	g := testOriginal(t, 40)
	c := crawlOn(t, g, 0.08, 41)
	w, err := estimate.NewWalk(c)
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.All(w)
	sub := sampling.BuildSubgraph(c)
	s, targetDeg, err := buildTargetDegreeVector(est, sub, rng(42))
	if err != nil {
		t.Fatal(err)
	}
	// Queried nodes keep their true degree.
	for i := 0; i < sub.NumQueried; i++ {
		if targetDeg[i] != sub.Graph.Degree(i) {
			t.Fatalf("queried target degree %d != subgraph degree %d",
				targetDeg[i], sub.Graph.Degree(i))
		}
	}
	// Visible targets >= subgraph degree (Lemma 1).
	for i := sub.NumQueried; i < sub.Graph.N(); i++ {
		if targetDeg[i] < sub.Graph.Degree(i) {
			t.Fatalf("visible target degree %d < subgraph degree %d",
				targetDeg[i], sub.Graph.Degree(i))
		}
	}
	if err := s.dv.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPhase1GjokaNoSubgraph(t *testing.T) {
	g := testOriginal(t, 50)
	c := crawlOn(t, g, 0.08, 51)
	w, _ := estimate.NewWalk(c)
	est := estimate.All(w)
	s, targetDeg, err := buildTargetDegreeVector(est, nil, rng(52))
	if err != nil {
		t.Fatal(err)
	}
	if targetDeg != nil {
		t.Fatal("no subgraph must mean no per-node targets")
	}
	if err := s.dv.Check(); err != nil {
		t.Fatal(err)
	}
	// Positive estimate mass must force at least one node per degree.
	for k, p := range est.DegreeDist {
		if p > 0 && s.dv[k] < 1 {
			t.Fatalf("n*(%d) = 0 despite positive estimate", k)
		}
	}
}

func TestPhase2DirectInvariants(t *testing.T) {
	g := testOriginal(t, 60)
	c := crawlOn(t, g, 0.08, 61)
	w, _ := estimate.NewWalk(c)
	est := estimate.All(w)
	sub := sampling.BuildSubgraph(c)
	s, targetDeg, err := buildTargetDegreeVector(est, sub, rng(62))
	if err != nil {
		t.Fatal(err)
	}
	jdm, err := buildTargetJDM(est, s.dv, sub.Graph, targetDeg, rng(63))
	if err != nil {
		t.Fatal(err)
	}
	if err := jdm.Check(s.dv); err != nil {
		t.Fatalf("JDM-3 violated: %v", err)
	}
	mPrime := dkseries.JDMFromBase(sub.Graph, targetDeg, s.dv.KMax())
	if err := jdm.CheckAgainstBase(mPrime); err != nil {
		t.Fatalf("JDM-4 violated: %v", err)
	}
}

func TestNearInt(t *testing.T) {
	cases := map[float64]int{0.4: 0, 0.5: 1, 1.49: 1, 1.5: 2, 2.7: 3}
	for in, want := range cases {
		if got := nearInt(in); got != want {
			t.Errorf("nearInt(%v) = %d want %d", in, got, want)
		}
	}
}
