// Benchmarks regenerating the paper's tables and figures at reduced scale.
//
// Every table and figure of the evaluation (Sec. VI) has a bench below that
// exercises the exact code path which regenerates it; custom metrics
// (avgL1, rewire-fraction, ...) report the headline quantity of that
// artifact. Full-fidelity regeneration — paper-scale graphs, 10 runs,
// RC = 500 — is the job of `go run ./cmd/experiment` (see EXPERIMENTS.md);
// benches keep the workload small so `go test -bench=.` finishes in
// minutes while preserving the paper's qualitative ordering.
package sgr_test

import (
	"math/rand/v2"
	"path/filepath"
	"testing"

	"sgr"
	"sgr/internal/core"
	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/harness"
	"sgr/internal/layout"
	"sgr/internal/metrics"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

func benchRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xb0b)) }

// benchDataset builds a small stand-in for the named paper dataset.
func benchDataset(b *testing.B, name string, scale float64) *graph.Graph {
	b.Helper()
	d, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return d.Build(scale, benchRNG(1))
}

func benchConfig(fraction float64) harness.Config {
	return harness.Config{
		Fraction: fraction,
		Runs:     1,
		RC:       10,
		Seed:     7,
		PropOpts: props.Options{ExactThreshold: 3000, Pivots: 300},
	}
}

// --- Fig. 3: average L1 over 12 properties vs fraction queried ---

func benchFig3(b *testing.B, dataset string) {
	g := benchDataset(b, dataset, 0.05)
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.02, 0.06, 0.10} {
			ev, err := harness.Evaluate(g, benchConfig(frac))
			if err != nil {
				b.Fatal(err)
			}
			last = ev.AvgL1(harness.MethodProposed)
		}
	}
	b.ReportMetric(last, "proposedAvgL1@10%")
}

func BenchmarkFig3Anybeat(b *testing.B)    { benchFig3(b, "anybeat") }
func BenchmarkFig3Brightkite(b *testing.B) { benchFig3(b, "brightkite") }
func BenchmarkFig3Epinions(b *testing.B)   { benchFig3(b, "epinions") }

// --- Table II: per-property L1 at 10% queried ---

func benchTable2(b *testing.B, dataset string) {
	g := benchDataset(b, dataset, 0.05)
	b.ResetTimer()
	var proposed, bestBaseline float64
	for i := 0; i < b.N; i++ {
		ev, err := harness.Evaluate(g, benchConfig(0.10))
		if err != nil {
			b.Fatal(err)
		}
		proposed = ev.AvgL1(harness.MethodProposed)
		bestBaseline = -1
		for _, m := range []harness.Method{harness.MethodBFS, harness.MethodSnowball,
			harness.MethodFF, harness.MethodRW, harness.MethodGjoka} {
			if v := ev.AvgL1(m); bestBaseline < 0 || v < bestBaseline {
				bestBaseline = v
			}
		}
	}
	b.ReportMetric(proposed, "proposedAvgL1")
	b.ReportMetric(bestBaseline, "bestBaselineAvgL1")
}

func BenchmarkTable2Slashdot(b *testing.B)  { benchTable2(b, "slashdot") }
func BenchmarkTable2Gowalla(b *testing.B)   { benchTable2(b, "gowalla") }
func BenchmarkTable2Livemocha(b *testing.B) { benchTable2(b, "livemocha") }

// --- Table III: avg +- sd over the six table datasets ---

func BenchmarkTable3AvgSD(b *testing.B) {
	graphs := make(map[string]*graph.Graph)
	for _, d := range gen.TableDatasets() {
		graphs[d.Name] = benchDataset(b, d.Name, 0.02)
	}
	b.ResetTimer()
	var worstAvg float64
	for i := 0; i < b.N; i++ {
		worstAvg = 0
		for _, g := range graphs {
			ev, err := harness.Evaluate(g, benchConfig(0.10))
			if err != nil {
				b.Fatal(err)
			}
			if avg := ev.AvgL1(harness.MethodProposed); avg > worstAvg {
				worstAvg = avg
			}
		}
	}
	b.ReportMetric(worstAvg, "proposedWorstAvgL1")
}

// --- Table IV: generation times (total and rewiring) ---

func benchGenerationTime(b *testing.B, gjoka bool) {
	g := benchDataset(b, "anybeat", 0.2)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rewireFrac float64
	for i := 0; i < b.N; i++ {
		opts := core.Options{RC: 25, Rand: benchRNG(uint64(i))}
		var res *core.Result
		var err error
		if gjoka {
			res, err = core.RestoreGjoka(crawl, opts)
		} else {
			res, err = core.Restore(crawl, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime > 0 {
			rewireFrac = res.RewireTime.Seconds() / res.TotalTime.Seconds()
		}
	}
	b.ReportMetric(rewireFrac, "rewireTimeFraction")
}

func BenchmarkTable4GenerateProposed(b *testing.B) { benchGenerationTime(b, false) }
func BenchmarkTable4GenerateGjoka(b *testing.B)    { benchGenerationTime(b, true) }

func BenchmarkTable4SubgraphConstruction(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.2)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampling.BuildSubgraph(crawl)
	}
}

// --- Table V: YouTube stand-in at 1% queried ---

func BenchmarkTable5YouTube(b *testing.B) {
	g := benchDataset(b, "youtube", 0.005) // ~5.7k nodes
	cfg := benchConfig(0.01)
	cfg.Methods = []harness.Method{harness.MethodRW, harness.MethodGjoka, harness.MethodProposed}
	b.ResetTimer()
	var proposed float64
	for i := 0; i < b.N; i++ {
		ev, err := harness.Evaluate(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		proposed = ev.AvgL1(harness.MethodProposed)
	}
	b.ReportMetric(proposed, "proposedAvgL1")
}

// --- Fig. 4: layout + SVG rendering ---

func BenchmarkFig4Visualization(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.05)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := layout.SaveSVG(filepath.Join(dir, "fig4.svg"), g,
			layout.Options{Iterations: 50, Rand: benchRNG(4)}, layout.SVGOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationRewireCandidates compares the proposed candidate set
// (added edges only) against Gjoka et al.'s full-edge candidate set on the
// same built graph: the restricted set must be faster per attempt-budget
// and reach a lower clustering distance.
func BenchmarkAblationRewireCandidates(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.1)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	build, err := core.Restore(crawl, core.Options{SkipRewiring: true, Rand: benchRNG(6)})
	if err != nil {
		b.Fatal(err)
	}
	sub := build.Subgraph
	fixed := sub.Graph.Edges()
	addedOnly := make([]graph.Edge, 0, build.Graph.M()-len(fixed))
	all := build.Graph.Edges()
	// Added edges = multiset difference all \ fixed.
	fixedCount := map[graph.Edge]int{}
	for _, e := range fixed {
		fixedCount[e.Canon()]++
	}
	for _, e := range all {
		c := e.Canon()
		if fixedCount[c] > 0 {
			fixedCount[c]--
			continue
		}
		addedOnly = append(addedOnly, e)
	}
	target := build.Estimates.Clustering

	b.Run("restricted", func(b *testing.B) {
		var final float64
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), addedOnly...)
			_, st := dkseries.RewireSharded(build.Graph.N(), fixed, cands, dkseries.ShardedRewireOptions{
				TargetClustering: target, RC: 20, Seed1: uint64(i),
			})
			final = st.FinalL1
		}
		b.ReportMetric(final, "clusteringL1")
	})
	b.Run("allEdges", func(b *testing.B) {
		var final float64
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), all...)
			_, st := dkseries.RewireSharded(build.Graph.N(), nil, cands, dkseries.ShardedRewireOptions{
				TargetClustering: target, RC: 20, Seed1: uint64(i),
			})
			final = st.FinalL1
		}
		b.ReportMetric(final, "clusteringL1")
	})
}

// BenchmarkAblationJDDEstimator compares the hybrid joint-degree estimator
// against its pure IE / TE variants (Sec. III-E).
func BenchmarkAblationJDDEstimator(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.2)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	w, err := estimate.NewWalk(crawl)
	if err != nil {
		b.Fatal(err)
	}
	truth := trueJDDDist(g)
	nHat, _ := w.NumNodes(w.Lag())
	kHat := w.AvgDegree()
	run := func(b *testing.B, f func() map[estimate.DegreePair]float64) {
		var l1 float64
		for i := 0; i < b.N; i++ {
			l1 = jddL1(f(), truth)
		}
		b.ReportMetric(l1, "jddL1")
	}
	b.Run("hybrid", func(b *testing.B) {
		run(b, func() map[estimate.DegreePair]float64 { return w.JDDHybrid(nHat, kHat, w.Lag()) })
	})
	b.Run("ie", func(b *testing.B) {
		run(b, func() map[estimate.DegreePair]float64 { return w.JDDIE(nHat, kHat, w.Lag()) })
	})
	b.Run("te", func(b *testing.B) {
		run(b, func() map[estimate.DegreePair]float64 { return w.JDDTE() })
	})
}

func trueJDDDist(g *graph.Graph) map[estimate.DegreePair]float64 {
	out := make(map[estimate.DegreePair]float64)
	twoM := 2 * float64(g.M())
	for kk, c := range g.JointDegreeMatrix() {
		mu := 1.0
		if kk[0] == kk[1] {
			mu = 2.0
		}
		out[estimate.Pair(kk[0], kk[1])] = mu * float64(c) / twoM
	}
	return out
}

func jddL1(got, want map[estimate.DegreePair]float64) float64 {
	num, den := 0.0, 0.0
	seen := make(map[estimate.DegreePair]bool)
	for kk, p := range want {
		d := got[kk] - p
		if d < 0 {
			d = -d
		}
		num += d
		den += p
		seen[kk] = true
	}
	for kk, p := range got {
		if !seen[kk] {
			num += p
		}
	}
	return num / den
}

// BenchmarkAblationRewireCoefficient sweeps RC, the attempts-per-edge
// coefficient, showing the accuracy/time trade-off of Sec. VI-C.
func BenchmarkAblationRewireCoefficient(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.1)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, rc := range []float64{1, 10, 50} {
		b.Run(rcName(rc), func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				res, err := core.Restore(crawl, core.Options{RC: rc, Rand: benchRNG(uint64(i))})
				if err != nil {
					b.Fatal(err)
				}
				final = res.RewireStats.FinalL1
			}
			b.ReportMetric(final, "clusteringL1")
		})
	}
}

func rcName(rc float64) string {
	switch rc {
	case 1:
		return "RC1"
	case 10:
		return "RC10"
	default:
		return "RC50"
	}
}

// BenchmarkAblationModificationSteps isolates the cost of the proposed
// method's subgraph-aware target construction (phases 1-2 with modification
// steps) against Gjoka et al.'s estimate-only construction.
func BenchmarkAblationModificationSteps(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.2)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(9))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("withModification", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Restore(crawl, core.Options{SkipRewiring: true, Rand: benchRNG(uint64(i))}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("withoutModification", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RestoreGjoka(crawl, core.Options{SkipRewiring: true, Rand: benchRNG(uint64(i))}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Component micro-benchmarks ---

func BenchmarkRandomWalkCrawl(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateAll(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.5)
	crawl, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, benchRNG(10))
	if err != nil {
		b.Fatal(err)
	}
	w, err := estimate.NewWalk(crawl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate.All(w)
	}
}

func BenchmarkComputeProperties(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.2)
	opts := props.Options{ExactThreshold: 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.Compute(g, opts)
	}
}

func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	g := benchDataset(b, "anybeat", 0.1)
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		r := benchRNG(uint64(i))
		crawl, err := sgr.RandomWalk(g, 0, 0.10, r)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sgr.Restore(crawl, sgr.Options{RC: 10, Rand: r})
		if err != nil {
			b.Fatal(err)
		}
		orig := sgr.ComputeProperties(g, sgr.PropertyOptions{})
		got := sgr.ComputeProperties(res.Graph, sgr.PropertyOptions{})
		avg = metrics.Mean(sgr.CompareL1(got, orig))
	}
	b.ReportMetric(avg, "avgL1")
}
