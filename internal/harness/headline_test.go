package harness

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

// TestHeadlineReproduction is the regression guard for the paper's main
// claim (Table III): on a clustered heavy-tailed social graph at a 10%
// query budget, the proposed method achieves a lower average L1 over the
// 12 properties than random-walk subgraph sampling, and its generation is
// faster than Gjoka et al.'s.
func TestHeadlineReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("headline reproduction is slow")
	}
	g := gen.HolmeKim(1500, 4, 0.5, rand.New(rand.NewPCG(21, 22)))
	ev, err := Evaluate(g, Config{
		Fraction: 0.10,
		Runs:     3,
		RC:       30,
		Seed:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	proposed := ev.AvgL1(MethodProposed)
	rw := ev.AvgL1(MethodRW)
	if proposed >= rw {
		t.Errorf("proposed avg L1 %.3f should beat RW subgraph sampling %.3f", proposed, rw)
	}
	// Timing claims: the proposed rewiring works on a smaller candidate
	// set, and subgraph construction is orders of magnitude faster than
	// generation. Evaluate's cells run concurrently and are timed once on
	// the wall clock, so on a loaded host one stall, or another cell's
	// garbage collected inside a cell, can flip a mean. Instead each run's
	// cells are replayed serially: the methods alternate in ABBA order,
	// each sample starts on a collected heap and is timed in process CPU
	// time, which waiting for a core does not inflate, and each method's
	// fastest sample per run is summed over runs.
	reps := 10
	if raceEnabled {
		// Instrumentation makes each replay ~10x dearer; one round is
		// as long as the evaluation itself.
		reps = 1
	}
	best := fastestGeneration(t, g, ev.Config, reps, MethodProposed, MethodGjoka, MethodRW)
	pt, gt, st := best[0], best[1], best[2]
	t.Logf("fastest generation CPU time summed over runs: proposed %v, Gjoka %v, RW subgraph %v", pt, gt, st)
	if pt >= gt {
		t.Errorf("proposed generation (%v) should be faster than Gjoka (%v)", pt, gt)
	}
	if st*10 > pt {
		t.Errorf("subgraph sampling (%v) should be far faster than generation (%v)", st, pt)
	}
}

// fastestGeneration replays the generation step of every run's cells for
// the given methods, reps rounds per run, on the run's own crawl and cell
// streams; odd rounds run the methods in reverse order. Each sample is
// the process CPU time of one generation, started after a collection. It
// returns, per method, the sum over runs of its fastest sample.
func fastestGeneration(t *testing.T, g *graph.Graph, cfg Config, reps int, methods ...Method) []time.Duration {
	t.Helper()
	out := make([]time.Duration, len(methods))
	for run := 0; run < cfg.Runs; run++ {
		s := &runSetup{seed: cfg.runRand(run).IntN(g.N())}
		walk, err := s.sharedWalk(g, cfg, run)
		if err != nil {
			t.Fatal(err)
		}
		best := make([]time.Duration, len(methods))
		for rep := 0; rep < reps; rep++ {
			for k := range methods {
				i := k
				if rep%2 == 1 {
					i = len(methods) - 1 - k
				}
				runtime.GC()
				start := processCPU()
				if _, _, _, err := generate(g, cfg, methods[i], s.seed, walk, cfg.cellRand(run, methods[i])); err != nil {
					t.Fatal(err)
				}
				if d := processCPU() - start; rep == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		for i := range methods {
			out[i] += best[i]
		}
	}
	return out
}
