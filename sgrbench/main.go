// Command sgrbench is the repository's end-to-end benchmark. It runs one
// workload against the restoration pipeline and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they are
// the per-layer set (see BENCHMARK.json and README.md). Earlier lines
// carry a human-readable detail report. A failed correctness check makes
// the result report correct=false and the command exit 1.
//
// Every measurement is taken from outside the program: the benchmark
// times its own calls into each layer's public functions and reads the
// daemons' HTTP endpoints. Inputs derive from -seed alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool    // smoke-test sizes, set by the self-tests
	rate     float64 // serve-mix arrival rate override (capacity sweeps)
	binDir   string  // where graphd and restored were built
	workDir  string  // scratch and span files
}

// run is the outcome of one workload, before it is cut down to the
// metric set the mode reports.
type run struct {
	attempted, failed int
	// problems are failed correctness checks; any makes the run incorrect.
	problems []string
	e2e      map[string]metric
	layer    map[string]metric
	detail   map[string]any
}

func newRun() *run {
	return &run{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]any{}}
}

func (r *run) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

var workloads = map[string]func(cfg config, tr *tracer) (*run, error){
	"restore-rc500": runRestore,
	"eval-rc50":     runEval,
	"serve-mix":     runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "restore-rc500, eval-rc50 or serve-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Float64Var(&cfg.rate, "rate", 0, "serve-mix arrival rate in ops/s (0 = the fixed benchmark rate)")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the graphd and restored binaries")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for scratch files and span files")
	flag.Parse()
	cfg.trace = trace == 1

	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "sgrbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	os.Exit(execute(cfg, fn))
}

// execute runs the workload, prints the report and returns the exit code.
func execute(cfg config, fn func(config, *tracer) (*run, error)) int {
	// A signal must still stop the daemons the workload started: the
	// workload owns them and is told through interrupted().
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		interrupt()
	}()

	tr := newTracer(cfg.trace)
	r, err := fn(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgrbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := finish(cfg, r, tr)
	printDetail(cfg, r)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgrbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish cuts a run down to the result line: the end-to-end metrics, or
// with tracing the per-layer metrics after writing the span file.
func finish(cfg config, r *run, tr *tracer) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if cfg.trace {
		res.Metrics = r.layer
		name := fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)
		path := filepath.Join(cfg.workDir, "traces", name)
		if err := tr.writeFile(path); err != nil {
			r.failf("writing span file: %v", err)
		} else {
			r.detail["span_file"] = path
		}
		r.detail["self_ms"] = tr.selfTimes()
	}
	if r.attempted < 1 {
		r.failf("no operation attempted")
	}
	r.detail["problems"] = r.problems
	r.detail["per_layer"] = r.layer
	res.Correct = len(r.problems) == 0
	return res
}

// printDetail writes the human-readable report: every metric of both
// sets with its unit, then the detail map as one JSON line.
func printDetail(cfg config, r *run) {
	fmt.Printf("# sgrbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, set := range []struct {
		name string
		m    map[string]metric
	}{{"end-to-end", r.e2e}, {"per-layer", r.layer}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("# %-10s %-32s %14.6g %s\n", set.name, n, set.m[n].Value, set.m[n].Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	if b, err := json.Marshal(r.detail); err == nil {
		fmt.Printf("detail %s\n", b)
	}
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
