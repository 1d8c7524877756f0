package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"sgr/internal/core"
	"sgr/internal/dkseries"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// restoreSize is the restore-rc500 input size.
type restoreSize struct {
	scale    float64
	fraction float64
	rc       float64
}

var restoreFull = restoreSize{scale: 0.25, fraction: 0.1, rc: 500}
var restoreTiny = restoreSize{scale: 0.03, fraction: 0.1, rc: 5}

// qualitySeeds is how many pipeline seeds the quality check restores: the
// timed ops' seed and qualitySeeds-1 more, restored after the window. One
// restoration's avg_l1 moves by up to 15% from seed to seed; the mean of
// three moves less.
const qualitySeeds = 3

// restoreOp is one measured core.Restore call.
type restoreOp struct {
	traced bool
	wallMS float64
	cpuMS  float64 // process CPU time during the call
	stats  map[string]float64
	res    *core.Result
	err    error
}

// runRestore is the restore-rc500 workload: a closed loop with one caller,
// each op one core.Restore at RC=500 of the fixed crawl of the anybeat
// stand-in at scale 0.25, at the first pipeline seed the workload seed
// draws. Every op does the same work and restores the same bytes, so the
// op timings are medians over all of them.
func runRestore(cfg config, tr *tracer) (*run, error) {
	size := restoreFull
	if cfg.tiny {
		size = restoreTiny
	}
	r := newRun()
	zeroLayers(r)

	var (
		g     *graph.Graph
		crawl *sampling.Crawl
		orig  *props.Result
	)
	err := repeatSetup(r, nil, func() error {
		g = buildGraph(size.scale)
		var err error
		crawl, err = fixedCrawl(g, size.fraction)
		if err != nil {
			return err
		}
		orig = props.Compute(g, quality)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.detail["graph"] = map[string]int{"n": g.N(), "m": g.M()}
	seeds := seedsOf(cfg.seed, 0, qualitySeeds)
	seed := seeds[0]

	// The traced run alternates traced and untraced ops, so the two sets
	// give the tracing overhead.
	if err := resetPeakRSS(0); err != nil {
		return nil, err
	}
	perCycle := 1
	if cfg.trace {
		perCycle = 2
	}
	var ops []restoreOp
	var first *core.Result
	var hash string
	err = cycles(cfg.seconds, perCycle, 2, func(cycle, i int) error {
		traced := cfg.trace && (i+cycle)%2 == 0
		op := restoreOnce(tr, len(ops), crawl, seed, size.rc, traced)
		r.attempted++
		if op.res == nil {
			r.failed++
			r.failf("restore op %d: %v", len(ops), op.err)
			ops = append(ops, op)
			return nil
		}
		// Untimed checks: the result's own guarantees, and byte identity
		// of every op, traced or not, with the first.
		if err := op.res.Validate(); err != nil {
			r.failed++
			r.failf("restore op %d: Validate: %v", len(ops), err)
		}
		h, err := graphHash(op.res.Graph)
		if err != nil {
			return err
		}
		if first == nil {
			first, hash = op.res, h
		} else if h != hash {
			r.failed++
			r.failf("restore op %d: restored to different bytes than the first op", len(ops))
		}
		op.res = nil
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

	// Quality: the 12-property L1 of the timed ops' restoration and of
	// the other quality seeds' restorations, untimed.
	var stats []dkseries.RewireStats
	var l1s []float64
	results := []*core.Result{first}
	for _, s := range seeds[1:] {
		res, err := core.Restore(crawl, core.Options{RC: size.rc, Rand: core.PipelineRand(s)})
		if err != nil {
			r.failf("quality restore: %v", err)
			continue
		}
		if err := res.Validate(); err != nil {
			r.failf("quality restore: Validate: %v", err)
		}
		results = append(results, res)
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		stats = append(stats, res.RewireStats)
		a, err := avgL1(props.Compute(res.Graph, quality), orig)
		if err != nil {
			r.failf("quality of seed %d: %v", i, err)
			continue
		}
		l1s = append(l1s, a)
	}
	r.setE2E("avg_l1", "l1", mean(l1s))
	r.detail["avg_l1_per_seed"] = l1s

	var untraced, traced, cpu, cpuPerWall []float64
	var perOp []map[string]float64
	// The first op warms the heap up to its working size and is left out
	// of the timings; it is checked like every other op.
	for _, op := range ops[1:] {
		if op.err != nil {
			continue
		}
		if op.traced {
			traced = append(traced, op.wallMS)
			perOp = append(perOp, op.stats)
		} else {
			untraced = append(untraced, op.wallMS)
			cpu = append(cpu, op.cpuMS)
		}
		cpuPerWall = append(cpuPerWall, op.cpuMS/op.wallMS)
	}
	r.setLayer("core.restore_cpu_ms", "ms", median(cpu))
	r.setE2E("ok_ratio", "ratio", 1-float64(r.failed)/float64(r.attempted))
	r.setLayer("core.restore_p50_ms", "ms", median(untraced))
	r.detail["op_ms"] = untraced
	r.detail["op_cpu_ms"] = cpu

	if cfg.trace {
		layerFromPhases(r, perOp)
		rewireCounts(r, stats)
		r.setLayer("core.restore_cpu_per_wall", "ratio", median(cpuPerWall))
		propsLayer(r, tr, g, quality)
		overhead(r, tr, traced, untraced)
	}
	return r, nil
}

// restoreOnce times one core.Restore. With traced set it records a
// benchmark span around the call and adopts the pipeline's own trace
// (core.Options.Trace) beneath it.
func restoreOnce(tr *tracer, opID int, c *sampling.Crawl, seed uint64, rc float64, traced bool) restoreOp {
	opts := core.Options{RC: rc, Rand: core.PipelineRand(seed)}
	op := restoreOp{traced: traced}
	var id int = -1
	var origin time.Time
	if traced {
		id = tr.start("core.Restore", -1, opID)
		opts.Trace = obs.NewTrace("restore")
		origin = time.Now()
	}
	c0, t0 := cpuSeconds(), time.Now()
	res, err := core.Restore(c, opts)
	wall := since(t0)
	op.cpuMS = (cpuSeconds() - c0) * 1e3
	op.wallMS = wall * 1e3
	tr.end(id)
	if err != nil {
		op.err = err
		return op
	}
	op.res = res
	if traced {
		tr.adopt(id, opID, origin, opts.Trace)
		op.stats = sumSpans(opts.Trace.Spans())
	}
	return op
}

// sumSpans totals a program trace's spans by name, in milliseconds.
func sumSpans(spans []obs.Span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.DurUS) / 1e3
	}
	return out
}

// rewireCounts reports the rewiring engine's exact counters summed over
// one restoration per distinct input (they repeat exactly at a fixed
// seed).
func rewireCounts(r *run, stats []dkseries.RewireStats) {
	var rounds, attempts, accepted, recomputed int
	var final []float64
	for _, st := range stats {
		rounds += st.Rounds
		attempts += st.Attempts
		accepted += st.Accepted
		recomputed += st.Recomputed
		final = append(final, st.FinalL1)
	}
	r.setLayer("dkseries.rounds", "count", float64(rounds))
	r.setLayer("dkseries.attempts", "count", float64(attempts))
	if attempts > 0 {
		r.setLayer("dkseries.accept_ratio", "ratio", float64(accepted)/float64(attempts))
		r.setLayer("dkseries.recompute_ratio", "ratio", float64(recomputed)/float64(attempts))
	}
	r.setLayer("dkseries.final_l1", "l1", mean(final))
}

// graphHash digests a graph's binary encoding.
func graphHash(g *graph.Graph) (string, error) {
	b, err := graph.AppendBinary(nil, g)
	if err != nil {
		return "", fmt.Errorf("encoding restored graph: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}
