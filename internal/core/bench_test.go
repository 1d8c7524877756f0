package core

import (
	"math/rand/v2"
	"testing"

	"sgr/internal/estimate"
	"sgr/internal/gen"
	"sgr/internal/sampling"
)

// BenchmarkRestoreEndToEnd measures the whole proposed pipeline —
// estimation, target construction, half-edge wiring and rewiring — on one
// crawl, so adjacency-engine changes show up as end-to-end wall time and
// allocation deltas. Recorded alongside BenchmarkRewire by `make bench-json`.
func BenchmarkRestoreEndToEnd(b *testing.B) {
	g := gen.HolmeKim(3000, 4, 0.5, rng(1))
	c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, 0.10, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Restore(c, Options{RC: 25, Rand: rng(uint64(i))})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkRestorePhases times what a restore runs between its estimate
// and its rewiring rounds, on sgrbench's fixed crawl (a 10% random walk of
// the anybeat stand-in at scale 0.25, seeded as in sgrbench/inputs.go)
// with the estimate computed once: the subgraph span, phases 1-3 and the
// rewiring engine's set-up at RC 0. counted is production, whose graphs
// come from graph.FromEdgeLists; addedge runs the frozen AddEdge builds of
// buildref_test.go in the same process, so `make bench-gate` gates the
// ratio of the two.
func BenchmarkRestorePhases(b *testing.B) {
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
	w, err := estimate.NewWalk(c)
	if err != nil {
		b.Fatal(err)
	}
	est := estimate.All(w)
	for _, side := range []struct {
		name   string
		frozen bool
	}{{"counted", false}, {"addedge", true}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runPhases(c, est, uint64(i), side.frozen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
