package props

import (
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	return gen.HolmeKim(n, 4, 0.5, rng(1))
}

func BenchmarkComputeAllExact(b *testing.B) {
	g := benchGraph(b, 2000)
	opts := Options{ExactThreshold: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g, opts)
	}
}

// BenchmarkComputeAllExactRef runs the frozen pre-CSR Compute pipeline
// with the frozen Brandes kernel (csrdiff_test.go) on the same graph and
// options, so BENCH_props.json carries before/after numbers measured on
// the same hardware — the counterpart of BenchmarkRewire's
// sharded-vs-adjset split.
func BenchmarkComputeAllExactRef(b *testing.B) {
	g := benchGraph(b, 2000)
	opts := Options{ExactThreshold: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refCompute(g, opts)
	}
}

func BenchmarkComputeAllPivot(b *testing.B) {
	g := benchGraph(b, 5000)
	opts := Options{ExactThreshold: 100, Pivots: 500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g, opts)
	}
}

// BenchmarkComputeAllPivotRef is the frozen pre-CSR pipeline in pivot mode.
func BenchmarkComputeAllPivotRef(b *testing.B) {
	g := benchGraph(b, 5000)
	opts := Options{ExactThreshold: 100, Pivots: 500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refCompute(g, opts)
	}
}

func brandesBenchInput(b *testing.B) (*csr, []int32) {
	b.Helper()
	g := benchGraph(b, 1500)
	sources := make([]int32, g.N())
	for i := range sources {
		sources[i] = int32(i)
	}
	return newCSR(g), sources
}

func BenchmarkBrandesAllSources(b *testing.B) {
	c, sources := brandesBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computePaths(c, sources, 1, 0, 0)
	}
}

// BenchmarkBrandesAllSourcesSerial is the same input at one worker: the
// path the harness's cells and restored's default /props take.
func BenchmarkBrandesAllSourcesSerial(b *testing.B) {
	c, sources := brandesBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computePaths(c, sources, 1, 1, 0)
	}
}

// BenchmarkBrandesAllSourcesRef runs the frozen arc-rescanning kernel
// (brandesref_test.go) through the same driver on the same input.
func BenchmarkBrandesAllSourcesRef(b *testing.B) {
	c, sources := brandesBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refComputePaths(c, sources, 1, 0)
	}
}

func BenchmarkLambda1(b *testing.B) {
	g := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lambda1(g)
	}
}

func BenchmarkEdgewiseSharedPartners(b *testing.B) {
	g := benchGraph(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgewiseSharedPartners(g)
	}
}

func BenchmarkDegreeClustering(b *testing.B) {
	g := benchGraph(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DegreeClustering(g)
	}
}

func BenchmarkCoreNumbers(b *testing.B) {
	g := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoreNumbers(g)
	}
}

func BenchmarkDissimilarity(b *testing.B) {
	a := benchGraph(b, 800)
	g := gen.HolmeKim(800, 4, 0.3, rng(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dissimilarity(a, g, Options{})
	}
}
