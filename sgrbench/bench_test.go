package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
	binOut  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// daemonBin builds graphd and restored once for the serve-mix tests.
func daemonBin(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "sgrbench-bin")
		if binErr != nil {
			return
		}
		for _, name := range []string{"graphd", "restored"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "sgr/cmd/"+name).CombinedOutput()
			if err != nil {
				binErr = err
				binOut = string(out)
				return
			}
		}
	})
	if binErr != nil {
		t.Fatalf("building daemons: %v\n%s", binErr, binOut)
	}
	return binDir
}

func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	cfg := config{workload: workload, seed: seed, seconds: 1.5, trace: trace, tiny: true, workDir: t.TempDir()}
	if workload == "serve-mix" {
		cfg.binDir = daemonBin(t)
		cfg.seconds = 2.5 // enough events for the fixed tail percentiles
	}
	return cfg
}

// runTiny runs one workload at smoke-test size and returns its result
// line and run record.
func runTiny(t *testing.T, cfg config) (result, *run) {
	t.Helper()
	tr := newTracer(cfg.trace)
	r, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	res := finish(cfg, r, tr)
	if !res.Correct {
		t.Fatalf("%s seed %d: correctness checks failed: %v", cfg.workload, cfg.seed, r.problems)
	}
	return res, r
}

// TestSmokeEveryMetric runs each workload at tiny size, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that the end-to-end ones
// are never 0.
func TestSmokeEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, _ := runTiny(t, tinyConfig(t, w.Name, 11, traced))
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed pins the inputs and the
// deterministic outputs: the serve-mix schedule hash, the rewiring
// engine's counters and the restoration quality.
func TestSameSeedSameInputs(t *testing.T) {
	hash := func() string {
		env := &serveEnv{}
		if err := serveInputs(config{seed: 5, seconds: 2}, serveTiny, env); err != nil {
			t.Fatal(err)
		}
		return env.sched.Hash
	}
	if a, b := hash(), hash(); a != b {
		t.Errorf("schedule hash differs at one seed: %s vs %s", a, b)
	}

	counts := []string{"dkseries.rounds", "dkseries.attempts", "dkseries.accept_ratio", "dkseries.recompute_ratio", "dkseries.final_l1"}
	for _, w := range []string{"restore-rc500", "eval-rc50"} {
		_, a := runTiny(t, tinyConfig(t, w, 5, true))
		_, b := runTiny(t, tinyConfig(t, w, 5, true))
		for _, name := range counts {
			if a.layer[name] != b.layer[name] {
				t.Errorf("%s: %s differs at one seed: %v vs %v", w, name, a.layer[name], b.layer[name])
			}
		}
		if a.e2e["avg_l1"] != b.e2e["avg_l1"] {
			t.Errorf("%s: avg_l1 differs at one seed: %v vs %v", w, a.e2e["avg_l1"], b.e2e["avg_l1"])
		}
	}
}

// TestUnseenSeed runs every workload on a seed never used while the
// benchmark was written; runTiny fails the test on any failed check.
func TestUnseenSeed(t *testing.T) {
	for name := range workloads {
		runTiny(t, tinyConfig(t, name, 0x9d1c_52e7_a4b0_3f61, false))
	}
}

func TestQuantileAndPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 = %v, want 90.1", got)
	}
	// 100 samples: p90 has exactly 10 beyond it, p95 only 5.
	r := newRun()
	if v := percentile(r, "x", xs, 0.9); math.Abs(v-90.1) > 1e-9 || len(r.problems) != 0 {
		t.Errorf("p90 of 100 samples = %v (problems %v), want 90.1", v, r.problems)
	}
	percentile(r, "x", xs, 0.95)
	if len(r.problems) != 1 {
		t.Errorf("p95 over 100 samples was not failed")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "a", StartUS: 10, EndUS: 50},
		{ID: 2, Parent: 0, Name: "b", StartUS: 40, EndUS: 60}, // overlaps a
		{ID: 3, Parent: 1, Name: "timer", StartUS: 10, EndUS: 30, Count: 7},
	}
	got := tr.selfTimes()
	want := map[string]float64{"op": 0.05, "a": 0.02, "b": 0.02, "timer": 0.02}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}
