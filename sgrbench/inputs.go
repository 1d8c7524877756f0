package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/metrics"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// datasetSeed is the generator seed of the anybeat stand-in and of the
// fixed crawl drawn from it. Dataset and crawl stay fixed, like a paper's
// real graphs and saved samples: a 10% walk's size estimate moves a
// restoration's work and quality by tens of percent from one walk to the
// next, which would bury any program change under input variance. The
// workload seed draws everything else: the pipeline seed, the generation
// streams of the evaluated methods, the serve-mix schedule and its job
// seeds. graphd -dataset derives its RNG the same way, so it
// serves the identical graph.
const datasetSeed = 3

// inputSalt separates the benchmark's seed streams from the program's.
const inputSalt = 0x73677262656e6368 // "sgrbench"

// setupReps is how many times a run performs its set-up; setup_s is the
// median, and the last set-up's state is the one measured.
const setupReps = 3

// quality is the fixed property-computation setting of the quality checks
// (a fixed worker count keeps the betweenness floats reproducible).
var quality = props.Options{Workers: 2}

func buildGraph(scale float64) *graph.Graph {
	d, err := gen.ByName("anybeat")
	if err != nil {
		panic(err) // a compiled-in dataset name
	}
	return d.Build(scale, rand.New(rand.NewPCG(datasetSeed, datasetSeed^0x5bd1e995)))
}

// stream returns the i-th random stream of a seed.
func stream(seed, i uint64) *rand.Rand {
	return sampling.SubStream(seed, seed^inputSalt, i)
}

// fixedCrawl draws the benchmark's fixed crawl: a random walk of g at
// fraction from stream 0 of datasetSeed.
func fixedCrawl(g *graph.Graph, fraction float64) (*sampling.Crawl, error) {
	r := stream(datasetSeed, 0)
	c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), r.IntN(g.N()), fraction, r)
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	return c, nil
}

// seedsOf draws count seeds from the workload seed's stream i.
func seedsOf(seed, i uint64, count int) []uint64 {
	r := stream(seed, i)
	out := make([]uint64, count)
	for k := range out {
		out[k] = r.Uint64()
	}
	return out
}

// repeatSetup runs setup setupReps times and reports the median wall
// time as setup_s, with every repetition's time in the detail report; the
// state of the last repetition is kept by the closure. undo, if not nil,
// tears down the previous repetition before each later one, untimed.
func repeatSetup(r *run, undo func(), setup func() error) error {
	var times []float64
	for i := 0; i < setupReps; i++ {
		if err := interrupted(); err != nil {
			return err
		}
		if i > 0 && undo != nil {
			undo()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		times = append(times, since(t0))
	}
	r.setE2E("setup_s", "s", median(times))
	r.detail["setup_reps_s"] = times
	return nil
}

// avgL1 is the paper's "avg": the mean of the 12 normalized L1 distances
// of gen's properties to the original's. It fails unless all 12 are
// finite.
func avgL1(genProps, orig *props.Result) (float64, error) {
	d := metrics.PerProperty(genProps, orig)
	if len(d) != 12 {
		return 0, fmt.Errorf("%d L1 values, want 12", len(d))
	}
	for i, x := range d {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("L1 of %s is %v", metrics.PropertyNames[i], x)
		}
	}
	return metrics.Mean(d), nil
}

// propsLayer times props.Compute on the reference graph with opts, and
// the exported sub-functions on their own. paths_ms is what Compute spends
// outside ESP, clustering and lambda1: the shortest-path and betweenness
// pass, with the degree statistics. core_ms (k-core peeling) is not part
// of Compute and is not subtracted.
func propsLayer(r *run, tr *tracer, g *graph.Graph, opts props.Options) {
	timed := func(name string, f func()) float64 {
		id := tr.start(name, -1, -1)
		t0 := time.Now()
		f()
		d := since(t0) * 1e3
		tr.end(id)
		return d
	}
	compute := timed("props.Compute", func() { props.Compute(g, opts) })
	esp := timed("props.EdgewiseSharedPartners", func() { props.EdgewiseSharedPartners(g) })
	clus := timed("props.LocalClustering", func() { props.LocalClustering(g) })
	lambda := timed("props.Lambda1", func() { props.Lambda1(g) })
	kcore := timed("props.CoreNumbers", func() { props.CoreNumbers(g) })
	r.setLayer("props.compute_ms", "ms", compute)
	r.setLayer("props.esp_ms", "ms", esp)
	r.setLayer("props.clustering_ms", "ms", clus)
	r.setLayer("props.lambda1_ms", "ms", lambda)
	r.setLayer("props.core_ms", "ms", kcore)
	r.setLayer("props.paths_ms", "ms", math.Max(compute-esp-clus-lambda, 0))
}

// layerUnits lists every per-layer metric with its unit. Each run reports
// all of them; a layer the workload never enters reads 0.
var layerUnits = map[string]string{
	"dkseries.rewire_ms":        "ms",
	"dkseries.propose_ms":       "ms",
	"dkseries.commit_ms":        "ms",
	"dkseries.rounds":           "count",
	"dkseries.attempts":         "count",
	"dkseries.accept_ratio":     "ratio",
	"dkseries.recompute_ratio":  "ratio",
	"dkseries.final_l1":         "l1",
	"core.phase1_ms":            "ms",
	"core.phase2_ms":            "ms",
	"core.phase3_ms":            "ms",
	"core.restore_cpu_per_wall": "ratio",
	"core.restore_p50_ms":       "ms",
	"core.restore_cpu_ms":       "ms",
	"props.compute_ms":          "ms",
	"props.esp_ms":              "ms",
	"props.clustering_ms":       "ms",
	"props.lambda1_ms":          "ms",
	"props.core_ms":             "ms",
	"props.paths_ms":            "ms",
	"harness.gen_busy_ms":       "ms",
	"harness.cpu_per_wall":      "ratio",
	"harness.eval_p50_ms":       "ms",
	"harness.eval_cpu_ms":       "ms",
	"oracle.service_mean_us":    "us",
	"oracle.queries_served":     "count",
	"oracle.rate_limited":       "count",
	"oracle.peak_rss_mb":        "MiB",
	"restored.queue_p50_ms":     "ms",
	"restored.run_p50_ms":       "ms",
	"restored.cpu_per_job_ms":   "ms",
	"restored.pipeline_mean_ms": "ms",
	"restored.encode_mean_ms":   "ms",
	"restored.request_mean_us":  "us",
	"restored.busy_ratio":       "ratio",
	"restored.cache_hit_ratio":  "ratio",
	"restored.pipeline_runs":    "count",
	"restored.wal_records":      "count",
	"restored.peak_rss_mb":      "MiB",
	"loadgen.late_p50_ms":       "ms",
	"loadgen.late_p90_ms":       "ms",
	"loadgen.slot_wait_p95_ms":  "ms",
	"loadgen.inflight_max":      "count",
	"loadgen.jobs":              "count",
	"loadgen.job_p50_ms":        "ms",
	"loadgen.query_p50_ms":      "ms",
	"loadgen.query_p90_ms":      "ms",
	"loadgen.queries":           "count",
	"mem.peak_rss_mb":           "MiB",
	"trace.untraced_op_p50_ms":  "ms",
	"trace.traced_op_p50_ms":    "ms",
	"trace.overhead_ratio":      "ratio",
	"trace.spans":               "count",
}

// zeroLayers reports every per-layer metric as 0 until the workload sets
// it.
func zeroLayers(r *run) {
	for name, unit := range layerUnits {
		r.setLayer(name, unit, 0)
	}
}

// overhead reports tracing overhead: the median of the traced ops against
// the median of the untraced ops of the same run.
func overhead(r *run, tr *tracer, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	r.setLayer("trace.traced_op_p50_ms", "ms", t)
	r.setLayer("trace.untraced_op_p50_ms", "ms", u)
	r.setLayer("trace.overhead_ratio", "ratio", t/u-1)
	tr.mu.Lock()
	r.setLayer("trace.spans", "count", float64(len(tr.spans)))
	tr.mu.Unlock()
}

// layerFromPhases reports the core and dkseries span metrics as the
// median over ops of each op's per-phase totals.
func layerFromPhases(r *run, perOp []map[string]float64) {
	pick := func(name string) float64 {
		xs := make([]float64, 0, len(perOp))
		for _, m := range perOp {
			xs = append(xs, m[name])
		}
		return median(xs)
	}
	if len(perOp) == 0 {
		return
	}
	r.setLayer("core.phase1_ms", "ms", pick("phase1_degree_vector"))
	r.setLayer("core.phase2_ms", "ms", pick("phase2_jdm"))
	r.setLayer("core.phase3_ms", "ms", pick("phase3_construct"))
	r.setLayer("dkseries.rewire_ms", "ms", pick("phase4_rewire"))
	r.setLayer("dkseries.propose_ms", "ms", pick("rewire/propose"))
	r.setLayer("dkseries.commit_ms", "ms", pick("rewire/commit"))
}

// cycles runs the closed loop: whole cycles of perCycle ops, at least
// minCycles of them, and then as long as another cycle ends nearer the
// window's end than stopping does. op gets the cycle and the op's index
// within it.
func cycles(seconds float64, perCycle, minCycles int, op func(cycle, i int) error) error {
	t0 := time.Now()
	for c := 0; ; c++ {
		for i := 0; i < perCycle; i++ {
			if err := interrupted(); err != nil {
				return err
			}
			if err := op(c, i); err != nil {
				return err
			}
		}
		el := since(t0)
		if c+1 >= minCycles && el+el/float64(c+1)/2 >= seconds {
			return nil
		}
	}
}
