package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/props"
)

// evalWorkers evaluates the small test graph with a given worker count,
// holding everything else (master seed, prop options) fixed.
func evalWorkers(t testing.TB, workers, runs int) *Evaluation {
	t.Helper()
	g := gen.HolmeKim(600, 3, 0.5, rand.New(rand.NewPCG(7, 8)))
	cfg := Config{
		Fraction: 0.10,
		Runs:     runs,
		RC:       3,
		Seed:     99,
		Workers:  workers,
	}
	// PropOpts.Workers stays unset: the original's properties run at the
	// pool width, which must not change a bit either.
	ev, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestParallelMatchesSequential is the engine's core guarantee: the bounded
// worker pool at 4 workers reproduces the sequential (workers=1) evaluation
// bit for bit, because each (run, method) cell owns an independent PCG
// stream and results merge by index.
func TestParallelMatchesSequential(t *testing.T) {
	seq := evalWorkers(t, 1, 4)
	par := evalWorkers(t, 4, 4)
	for _, m := range AllMethods {
		ss, ps := seq.Stats[m], par.Stats[m]
		for i := range ss.PerProperty {
			if len(ss.PerProperty[i]) != len(ps.PerProperty[i]) {
				t.Fatalf("%s property %d: run counts differ", m, i)
			}
			for run := range ss.PerProperty[i] {
				if ss.PerProperty[i][run] != ps.PerProperty[i][run] {
					t.Errorf("%s property %d run %d: workers=1 %v != workers=4 %v",
						m, i, run, ss.PerProperty[i][run], ps.PerProperty[i][run])
				}
			}
		}
	}
	// Rendered tables (timing-free ones) must match byte for byte.
	if a, b := RenderPerProperty("toy", seq), RenderPerProperty("toy", par); a != b {
		t.Errorf("per-property tables differ:\n%s\nvs\n%s", a, b)
	}
	evA := map[string]*Evaluation{"toy": seq}
	evB := map[string]*Evaluation{"toy": par}
	if a, b := RenderAvgSD(evA), RenderAvgSD(evB); a != b {
		t.Errorf("avg tables differ:\n%s\nvs\n%s", a, b)
	}
}

// TestOriginalPropsUseThePool pins the original graph's properties, now
// computed at the pool width, to the serial bits: ComputeOriginal at four
// workers renders the JSON of props.Compute at one, and Evaluate computing
// the original itself equals Evaluate handed the precomputed result.
func TestOriginalPropsUseThePool(t *testing.T) {
	g := gen.HolmeKim(600, 3, 0.5, rand.New(rand.NewPCG(7, 8)))
	got, err := json.Marshal(Config{Workers: 4}.ComputeOriginal(g))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(props.Compute(g, props.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ComputeOriginal at Workers 4 differs from props.Compute at Workers 1")
	}
	for _, workers := range []int{1, 3} {
		cfg := Config{Fraction: 0.10, Runs: 2, RC: 3, Seed: 99, Workers: workers}
		lazy, err := Evaluate(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Original = cfg.ComputeOriginal(g)
		pre, err := Evaluate(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lazy.Original, pre.Original) {
			t.Errorf("workers=%d: original properties differ", workers)
		}
		for _, m := range AllMethods {
			if !reflect.DeepEqual(lazy.Stats[m].PerProperty, pre.Stats[m].PerProperty) {
				t.Errorf("workers=%d: %s L1 values differ", workers, m)
			}
		}
	}
}

// TestParallelCSVMatchesSequential checks the tidy-CSV path: every column
// except the wall-clock timings must be identical across worker counts.
func TestParallelCSVMatchesSequential(t *testing.T) {
	stripTimes := func(ev *Evaluation) string {
		var buf bytes.Buffer
		if err := ev.WriteCSV(&buf, "toy"); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 0, buf.Len())
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			fields := bytes.Split(line, []byte(","))
			if len(fields) >= 7 {
				fields = fields[:5] // drop total_seconds, rewire_seconds
			}
			out = append(out, bytes.Join(fields, []byte(","))...)
			out = append(out, '\n')
		}
		return string(out)
	}
	if a, b := stripTimes(evalWorkers(t, 1, 3)), stripTimes(evalWorkers(t, 8, 3)); a != b {
		t.Errorf("CSV content differs between worker counts:\n%s\nvs\n%s", a, b)
	}
}

// TestWorkerCountInvariance sweeps several pool widths; all must agree.
func TestWorkerCountInvariance(t *testing.T) {
	ref := evalWorkers(t, 1, 2)
	for _, w := range []int{2, 3, 7} {
		got := evalWorkers(t, w, 2)
		for _, m := range AllMethods {
			if ref.AvgL1(m) != got.AvgL1(m) {
				t.Errorf("workers=%d: %s avg L1 %v != %v", w, m, got.AvgL1(m), ref.AvgL1(m))
			}
		}
	}
}

// TestConcurrentCellsShareGraphRaceFree exercises, under -race, many
// concurrent cells reading one dataset graph and per-run shared crawls.
// All six methods run so subgraph construction, Gjoka's method and the
// proposed method all hit the shared state concurrently.
func TestConcurrentCellsShareGraphRaceFree(t *testing.T) {
	ev := evalWorkers(t, 8, 4)
	for _, m := range AllMethods {
		if got := len(ev.Stats[m].TotalTimes); got != 4 {
			t.Fatalf("%s: %d runs recorded, want 4", m, got)
		}
	}
}

// TestPrecomputedOriginalMatches checks the sweep fast path: passing a
// ComputeOriginal result via Config.Original must reproduce the nil-path
// evaluation exactly.
func TestPrecomputedOriginalMatches(t *testing.T) {
	g := gen.HolmeKim(600, 3, 0.5, rand.New(rand.NewPCG(7, 8)))
	cfg := Config{Fraction: 0.10, Runs: 2, RC: 3, Seed: 99, Workers: 4}
	a, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Original = cfg.ComputeOriginal(g)
	b, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods {
		if a.AvgL1(m) != b.AvgL1(m) {
			t.Errorf("%s: precomputed-original avg L1 %v != %v", m, b.AvgL1(m), a.AvgL1(m))
		}
	}
}

// TestCellStreamsDistinct guards the PCG stream derivation: the walk stream
// of each run and the cell streams of all methods must be pairwise
// distinct for a realistic sweep size.
func TestCellStreamsDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	record := func(stream uint64, what string) {
		if prev, ok := seen[stream]; ok {
			t.Fatalf("stream collision: %s and %s both use %#x", prev, what, stream)
		}
		seen[stream] = what
	}
	for run := 0; run < 100; run++ {
		record(uint64(run)*runStream+1, fmt.Sprintf("run %d walk", run))
		for mi := range AllMethods {
			record(uint64(run)*runStream+1+(uint64(mi)+1)*cellStream,
				fmt.Sprintf("run %d cell %d", run, mi))
		}
	}
}

// BenchmarkEvaluateWorkers measures the multi-run sweep at 1 and 4 workers;
// the 4-worker case should be at least ~2x faster on >= 4 CPUs (on fewer
// CPUs the two cases coincide — GOMAXPROCS caps real parallelism).
func BenchmarkEvaluateWorkers(b *testing.B) {
	g := gen.HolmeKim(1200, 4, 0.4, rand.New(rand.NewPCG(7, 8)))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Fraction: 0.10,
					Runs:     8,
					RC:       10,
					Seed:     42,
					Workers:  workers,
				}
				cfg.PropOpts.Workers = 1 // isolate cell-level parallelism
				if _, err := Evaluate(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
