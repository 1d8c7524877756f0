package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"sgr/internal/core"
	"sgr/internal/dkseries"
	"sgr/internal/graph"
	"sgr/internal/harness"
	"sgr/internal/obs"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// evalSize is the eval-rc50 input size.
type evalSize struct {
	scale    float64
	fraction float64
	rc       float64
}

var evalFull = evalSize{scale: 0.25, fraction: 0.1, rc: 50}
var evalTiny = evalSize{scale: 0.02, fraction: 0.1, rc: 2}

// evalOp is one measured harness.Evaluate call.
type evalOp struct {
	traced  bool
	wallMS  float64
	cpuMS   float64            // process CPU time during the call
	genMS   float64            // summed time inside the Restorer hook
	phases  map[string]float64 // program spans of the op's restorations
	means   map[harness.Method][12]float64
	rewires []dkseries.RewireStats // the Proposed cells' engine counters
	err     error
}

// runEval is the eval-rc50 workload: a closed loop with one caller, each
// op one harness.Evaluate of all six methods (scale 0.25, fraction 0.1,
// one run, RC 50, Workers = nproc, the original's properties precomputed
// in set-up). Every op of a run evaluates the same protocol seed with the
// same generation streams, so every op does the same work and the op
// timings are medians over all of them.
func runEval(cfg config, tr *tracer) (*run, error) {
	size := evalFull
	if cfg.tiny {
		size = evalTiny
	}
	r := newRun()
	zeroLayers(r)

	var (
		g    *graph.Graph
		orig *props.Result
	)
	base := harness.Config{Fraction: size.fraction, Runs: 1, RC: size.rc, Workers: runtime.NumCPU()}
	err := repeatSetup(r, nil, func() error {
		g = buildGraph(size.scale)
		orig = base.ComputeOriginal(g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	base.Original = orig
	r.detail["graph"] = map[string]int{"n": g.N(), "m": g.M()}

	// The protocol seed (seed nodes, walks, the baselines' crawls) is
	// fixed with the dataset; the workload seed draws the generation
	// streams of the two restoration methods. The traced run alternates
	// traced and untraced ops.
	base.Seed = seedsOf(datasetSeed, 1, 1)[0]
	genSeed := seedsOf(cfg.seed, 1, 1)[0]
	if err := resetPeakRSS(0); err != nil {
		return nil, err
	}
	perCycle := 1
	if cfg.trace {
		perCycle = 2
	}
	var ops []evalOp
	var first *evalOp
	err = cycles(cfg.seconds, perCycle, 2, func(cycle, i int) error {
		traced := cfg.trace && (i+cycle)%2 == 0
		op := evalOnce(tr, len(ops), g, base, genSeed, traced)
		r.attempted++
		switch {
		case op.err != nil:
			r.failed++
			r.failf("evaluate op %d: %v", len(ops), op.err)
		case first == nil:
			first = &op
		case !sameMeans(first.means, op.means):
			r.failed++
			r.failf("evaluate op %d: gave different L1 values than the first op", len(ops))
		}
		ops = append(ops, op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	r.setLayer("mem.peak_rss_mb", "MiB", rss)

	var stats []dkseries.RewireStats
	if first != nil {
		m := first.means[harness.MethodProposed]
		r.setE2E("avg_l1", "l1", mean(m[:]))
		stats = first.rewires
	}

	var untraced, traced, gen, cpu, cpuPerWall []float64
	var perOp []map[string]float64
	// The first op warms the heap up to its working size and is left out
	// of the timings; it is checked like every other op.
	for _, op := range ops[1:] {
		if op.err != nil {
			continue
		}
		cpuPerWall = append(cpuPerWall, op.cpuMS/op.wallMS)
		if op.traced {
			traced = append(traced, op.wallMS)
			gen = append(gen, op.genMS)
			perOp = append(perOp, op.phases)
		} else {
			untraced = append(untraced, op.wallMS)
			cpu = append(cpu, op.cpuMS)
		}
	}
	r.setLayer("harness.eval_cpu_ms", "ms", median(cpu))
	r.setE2E("ok_ratio", "ratio", 1-float64(r.failed)/float64(r.attempted))
	r.setLayer("harness.eval_p50_ms", "ms", median(untraced))
	r.detail["op_ms"] = untraced
	r.detail["op_cpu_ms"] = cpu

	if cfg.trace {
		layerFromPhases(r, perOp)
		rewireCounts(r, stats)
		r.setLayer("harness.gen_busy_ms", "ms", median(gen))
		r.setLayer("harness.cpu_per_wall", "ratio", median(cpuPerWall))
		propsLayer(r, tr, g, props.Options{Workers: 1})
		overhead(r, tr, traced, untraced)
	}
	return r, nil
}

// evalOnce times one harness.Evaluate and checks that every method has 12
// finite L1 values. Generation goes through a Restorer around
// harness.DefaultRestorer that draws each method's stream from genSeed; a
// traced op's Restorer also times the call and sets core.Options.Trace.
func evalOnce(tr *tracer, opID int, g *graph.Graph, c harness.Config, genSeed uint64, traced bool) evalOp {
	op := evalOp{traced: traced, phases: map[string]float64{}}
	reseed := func(m harness.Method, opts core.Options) core.Options {
		opts.Rand = stream(genSeed, uint64(slices.Index(harness.AllMethods, m)))
		return opts
	}
	c.Restorer = func(m harness.Method, crawl *sampling.Crawl, opts core.Options) (*core.Result, error) {
		return harness.DefaultRestorer(m, crawl, reseed(m, opts))
	}
	id := -1
	if traced {
		id = tr.start("harness.Evaluate", -1, opID)
		var mu sync.Mutex
		c.Restorer = func(m harness.Method, crawl *sampling.Crawl, opts core.Options) (*core.Result, error) {
			sid := tr.start("harness.Restorer", id, opID)
			opts = reseed(m, opts)
			opts.Trace = obs.NewTrace(string(m))
			origin := time.Now()
			res, err := harness.DefaultRestorer(m, crawl, opts)
			d := since(origin) * 1e3
			tr.end(sid)
			tr.adopt(sid, opID, origin, opts.Trace)
			mu.Lock()
			defer mu.Unlock()
			op.genMS += d
			for k, v := range sumSpans(opts.Trace.Spans()) {
				op.phases[k] += v
			}
			if err == nil && m == harness.MethodProposed {
				op.rewires = append(op.rewires, res.RewireStats)
			}
			return res, err
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	ev, err := harness.Evaluate(g, c)
	wall := since(t0)
	tr.end(id)
	op.wallMS, op.cpuMS = wall*1e3, (cpuSeconds()-c0)*1e3
	if err != nil {
		op.err = err
		return op
	}
	op.means = make(map[harness.Method][12]float64)
	for _, m := range harness.AllMethods {
		st := ev.Stats[m]
		if st == nil {
			op.err = fmt.Errorf("method %s missing", m)
			return op
		}
		for i, xs := range st.PerProperty {
			if len(xs) != c.Runs {
				op.err = fmt.Errorf("method %s property %d: %d values for %d runs", m, i, len(xs), c.Runs)
				return op
			}
		}
		means := st.PropertyMeans()
		for i, x := range means {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				op.err = fmt.Errorf("method %s property %d: L1 %v", m, i, x)
				return op
			}
		}
		op.means[m] = means
	}
	return op
}

func sameMeans(a, b map[harness.Method][12]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for m, x := range a {
		if b[m] != x {
			return false
		}
	}
	return true
}
