package estimate

import (
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/sampling"
)

func benchWalk(b *testing.B, steps int) *Walk {
	b.Helper()
	g := gen.HolmeKim(5000, 4, 0.5, rng(1))
	c, err := sampling.RandomWalkSteps(sampling.NewGraphAccess(g), 0, steps, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWalk(c)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkNumNodes(b *testing.B) {
	w := benchWalk(b, 5000)
	m := w.Lag()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NumNodes(m)
	}
}

func BenchmarkJDDHybrid(b *testing.B) {
	w := benchWalk(b, 5000)
	nHat, _ := w.NumNodes(w.Lag())
	kHat := w.AvgDegree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.JDDHybrid(nHat, kHat, w.Lag())
	}
}

func BenchmarkDegreeClusteringEstimator(b *testing.B) {
	w := benchWalk(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DegreeClustering()
	}
}

func BenchmarkAllEstimators(b *testing.B) {
	w := benchWalk(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		All(w)
	}
}

func BenchmarkNewWalk(b *testing.B) {
	g := gen.HolmeKim(5000, 4, 0.5, rng(3))
	c, err := sampling.RandomWalkSteps(sampling.NewGraphAccess(g), 0, 5000, rng(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWalk(c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFixedCrawl draws sgrbench's fixed crawl: a 10% random walk of the
// anybeat stand-in at scale 0.25, dataset and walk seeded as in
// sgrbench/inputs.go (datasetSeed 3, walk stream 0).
func benchFixedCrawl(b *testing.B) *sampling.Crawl {
	b.Helper()
	d, err := gen.ByName("anybeat")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build(0.25, rand.New(rand.NewPCG(3, 3^0x5bd1e995)))
	r := sampling.SubStream(3, 3^0x73677262656e6368, 0)
	c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), r.IntN(g.N()), 0.1, r)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkRestoreSpans times what a restore of a parsed crawl runs before
// phase 1, on sgrbench's fixed crawl: NewCrawl from the crawl's lists, the
// "estimate" span (NewWalk + All) and the "subgraph" span
// (BuildSubgraph). Each op builds a fresh crawl, so the labeling is timed
// wherever it runs. dense is the production path, whose two spans share
// the crawl's one labeling; mapref is the frozen map-based path of
// labelref_test.go, which builds the crawl's old Neighbors map and lets
// each span relabel on its own.
func BenchmarkRestoreSpans(b *testing.B) {
	fixed := benchFixedCrawl(b)
	queried, lists, walk := fixed.Queried(), fixed.Lists(), fixed.Walk()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := sampling.NewCrawl(queried, lists, walk)
			if err != nil {
				b.Fatal(err)
			}
			w, err := NewWalk(c)
			if err != nil {
				b.Fatal(err)
			}
			All(w)
			sampling.BuildSubgraph(c)
		}
	})
	b.Run("mapref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := sampling.NewCrawl(queried, lists, walk)
			if err != nil {
				b.Fatal(err)
			}
			rc := newRefCrawl(c)
			w, err := refNewWalk(rc)
			if err != nil {
				b.Fatal(err)
			}
			All(w)
			refBuildSubgraph(rc)
		}
	})
}
