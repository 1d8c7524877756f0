package harness

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.HolmeKim(600, 3, 0.5, rand.New(rand.NewPCG(7, 8)))
	return g
}

func quickConfig() Config {
	return Config{
		Fraction: 0.10,
		Runs:     2,
		RC:       3,
		Seed:     99,
	}
}

func TestEvaluateAllMethods(t *testing.T) {
	g := smallGraph(t)
	ev, err := Evaluate(g, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Stats) != 6 {
		t.Fatalf("want 6 methods, got %d", len(ev.Stats))
	}
	for m, st := range ev.Stats {
		for i := range st.PerProperty {
			if len(st.PerProperty[i]) != 2 {
				t.Fatalf("%s property %d: %d runs recorded", m, i, len(st.PerProperty[i]))
			}
			for _, v := range st.PerProperty[i] {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("%s property %d: bad distance %v", m, i, v)
				}
			}
		}
		if len(st.TotalTimes) != 2 {
			t.Fatalf("%s: %d timing entries", m, len(st.TotalTimes))
		}
	}
	// Subgraph-sampling methods must have zero rewiring time; generation
	// methods nonzero.
	if ev.Stats[MethodBFS].MeanRewireTime() != 0 {
		t.Error("BFS must not rewire")
	}
	if ev.Stats[MethodProposed].MeanRewireTime() <= 0 {
		t.Error("proposed method must report rewiring time")
	}
}

func TestEvaluateMethodSubset(t *testing.T) {
	g := smallGraph(t)
	cfg := quickConfig()
	cfg.Methods = []Method{MethodRW, MethodProposed}
	cfg.Runs = 1
	ev, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Stats) != 2 {
		t.Fatalf("want 2 methods, got %d", len(ev.Stats))
	}
}

func TestEvaluateDeterministicGivenSeed(t *testing.T) {
	g := smallGraph(t)
	cfg := quickConfig()
	cfg.Runs = 1
	cfg.Methods = []Method{MethodProposed}
	a, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stats[MethodProposed].PerProperty {
		av := a.Stats[MethodProposed].PerProperty[i][0]
		bv := b.Stats[MethodProposed].PerProperty[i][0]
		if av != bv {
			t.Fatalf("property %d: %v vs %v", i, av, bv)
		}
	}
}

func TestProposedBeatsSubgraphOnN(t *testing.T) {
	// The subgraph under-counts nodes by construction; the proposed method
	// should get far closer to n (property index 0).
	g := smallGraph(t)
	cfg := quickConfig()
	cfg.Runs = 3
	ev, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proposed := ev.Stats[MethodProposed].PropertyMeans()[0]
	rw := ev.Stats[MethodRW].PropertyMeans()[0]
	if proposed >= rw {
		t.Errorf("proposed n-distance %v should beat subgraph sampling %v", proposed, rw)
	}
}

func TestAvgSDPerPaperDefinition(t *testing.T) {
	st := &MethodStats{}
	for i := 0; i < 12; i++ {
		st.PerProperty[i] = []float64{float64(i), float64(i) + 2} // mean i+1
	}
	avg, sd := st.AvgSD()
	// Property means are 1..12: mean 6.5.
	if math.Abs(avg-6.5) > 1e-12 {
		t.Fatalf("avg = %v", avg)
	}
	if sd <= 0 {
		t.Fatalf("sd = %v", sd)
	}
}

func TestRenderers(t *testing.T) {
	g := smallGraph(t)
	cfg := quickConfig()
	cfg.Runs = 1
	ev, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := RenderPerProperty("toy", ev)
	if !strings.Contains(tbl, "Proposed") || !strings.Contains(tbl, "lambda1") {
		t.Fatalf("per-property table malformed:\n%s", tbl)
	}
	avg := RenderAvgSD(map[string]*Evaluation{"toy": ev})
	if !strings.Contains(avg, "toy") || !strings.Contains(avg, "+-") {
		t.Fatalf("avg table malformed:\n%s", avg)
	}
	times := RenderTimes(map[string]*Evaluation{"toy": ev})
	if !strings.Contains(times, "rewire") {
		t.Fatalf("times table malformed:\n%s", times)
	}
	series := Fig3Series{}
	for _, m := range cfg.Methods {
		series[m] = []Fig3Point{{Fraction: 0.1, AvgL1: ev.AvgL1(m)}}
	}
	fig := RenderFig3("toy", series, cfg.Methods)
	if !strings.Contains(fig, "fraction") {
		t.Fatalf("fig3 render malformed:\n%s", fig)
	}
}
