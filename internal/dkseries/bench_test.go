package dkseries

import (
	"math/rand/v2"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/props"
)

func benchSource(b *testing.B, n int) *graph.Graph {
	b.Helper()
	return gen.HolmeKim(n, 4, 0.5, rng(1))
}

func BenchmarkBuild2K(b *testing.B) {
	src := benchSource(b, 3000)
	dv, err := FromGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(nil, nil, dv, jdm, rng(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewire drives the full Algorithm-6 loop on an identical
// workload through the production engine, RewireSharded, and the frozen
// serial reference, the flat adjset loop (rewire_serialref_test.go).
// `make bench-json` records both variants in BENCH_rewire.json, which
// `make bench-gate` compares run over run.
func BenchmarkRewire(b *testing.B) {
	src := benchSource(b, 2000)
	dv, err := FromGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	res, err := Build(nil, nil, dv, jdm, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	target := props.DegreeClustering(src)
	run := func(b *testing.B, engine func(int, []graph.Edge, []graph.Edge, rewireOptions) (*graph.Graph, RewireStats)) {
		b.ReportAllocs()
		var accepted int
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), res.Added...)
			_, st := engine(src.N(), nil, cands, rewireOptions{
				TargetClustering: target,
				RC:               5,
				Rand:             rng(uint64(i)),
			})
			accepted = st.Accepted
		}
		b.ReportMetric(float64(accepted), "accepted/op")
	}
	b.Run("adjset", func(b *testing.B) { run(b, rewireSerialRef) })
	// The production engine on the same workload: sharded1 vs adjset
	// isolates the algorithmic win (rejections never mutate, so they never
	// revert). scripts/bench_gate.sh and the committed baselines key on
	// the name sharded1.
	b.Run("sharded1", func(b *testing.B) {
		b.ReportAllocs()
		var accepted int
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), res.Added...)
			_, st := RewireSharded(src.N(), nil, cands, ShardedRewireOptions{
				TargetClustering: target,
				RC:               5,
				Seed1:            uint64(i),
				Seed2:            uint64(i) ^ 0x5eed,
			})
			accepted = st.Accepted
		}
		b.ReportMetric(float64(accepted), "accepted/op")
	})
}

func BenchmarkRewireAttempts(b *testing.B) {
	src := benchSource(b, 2000)
	dv, _ := FromGraph(src)
	jdm := JDMFromGraph(src)
	res, err := Build(nil, nil, dv, jdm, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	target := props.DegreeClustering(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := append([]graph.Edge(nil), res.Added...)
		// RC=1 -> one attempt per candidate edge; ns/op / len(cands) is
		// the per-attempt cost.
		RewireSharded(src.N(), nil, cands, ShardedRewireOptions{
			TargetClustering: target,
			RC:               1,
			Seed1:            uint64(i),
		})
	}
	b.ReportMetric(float64(len(res.Added)), "attempts/op")
}

func BenchmarkDK25(b *testing.B) {
	src := benchSource(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DK25(src, 5, rng(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewireSetup times the engine's work outside its rounds on the
// anybeat 0.25 stand-in with every edge a candidate (Gjoka et al.'s
// setting): newShardedState, then the output graph's construction.
func BenchmarkRewireSetup(b *testing.B) {
	d, err := gen.ByName("anybeat")
	if err != nil {
		b.Fatal(err)
	}
	src := d.Build(0.25, rand.New(rand.NewPCG(3, 3^0x5bd1e995)))
	cands := src.Edges()
	target := props.DegreeClustering(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := newShardedState(src.N(), nil, cands, target)
		graph.FromEdgeLists(src.N(), nil, st.ends)
	}
}
