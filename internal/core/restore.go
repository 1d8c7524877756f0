package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/sampling"
)

// Options configures a restoration run.
type Options struct {
	// Ctx, when set, is polled cooperatively at pipeline phase boundaries
	// (and, through the sharded engine, at rewiring round boundaries): a
	// cancelled or expired context aborts the run with an error wrapping
	// the cancellation cause. The checks are reads of the context only —
	// they touch no RNG, no map, no float — so a run that completes does
	// so byte-identical to one with no context at all; cancellation can
	// only abort a result, never change one.
	Ctx context.Context
	// RC is the rewiring-attempt coefficient (Sec. V-E; paper default 500).
	// Zero selects dkseries.DefaultRC. Values outside [0, dkseries.MaxRC],
	// NaN and infinities make every restoration entry point return an
	// error (see Validate).
	RC float64
	// SkipRewiring disables phase 4 entirely (for ablation experiments).
	SkipRewiring bool
	// ForbidDegenerate makes phase 4 reject swaps that would create
	// self-loops or parallel edges, steering the output toward a simple
	// graph (extension; the paper's model permits both).
	ForbidDegenerate bool
	// RewireWorkers bounds the propose-phase parallelism of phase 4's
	// sharded rewiring engine (<= 0 selects parallel.DefaultWorkers).
	// The restored graph is byte-identical at any value — the knob buys
	// wall clock only — which is why the restored daemon may exclude it
	// from its job content address.
	RewireWorkers int
	// Trace, when set, receives one span per pipeline phase (estimate,
	// subgraph, phase1_degree_vector, phase2_jdm, phase3_construct,
	// phase4_rewire) plus the rewiring engine's aggregate propose/commit
	// round timers. Observability only: spans read the monotonic clock and
	// nothing else, so the restored graph is byte-identical with and
	// without one — the same wall-clock-only contract as RewireWorkers.
	// Result's times are read off these spans; without a Trace the run
	// records its phase spans into a private one.
	Trace *obs.Trace
	// Rand is the random source; required.
	Rand *rand.Rand
}

// Validate rejects options no restoration can run with: today an RC that
// fails dkseries.CheckRC. Every restoration entry point calls it first.
func (o Options) Validate() error {
	if err := dkseries.CheckRC(o.RC); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

func (o Options) rc() float64 {
	if o.RC == 0 {
		return dkseries.DefaultRC
	}
	return o.RC
}

// ctxErr is the pipeline's cooperative cancellation poll: nil while the
// run may continue, an error wrapping the cancellation cause once
// Options.Ctx is done. A nil context never aborts.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return fmt.Errorf("core: restoration aborted: %w", context.Cause(o.Ctx))
	default:
		return nil
	}
}

// phase runs one traced pipeline step: it polls the context, then runs fn
// inside the span name. The span closes however fn returns, so the trace
// of a failed job still shows how long its failing phase ran, and an
// error from fn marks it.
func (o Options) phase(name string, fn func() error) (err error) {
	if err := o.ctxErr(); err != nil {
		return err
	}
	end := o.Trace.StartErr(name)
	defer func() { end(err) }()
	return fn()
}

// PipelineRand returns the canonical RNG for a seeded restoration pipeline:
// the stream cmd/restore has always derived from its -seed flag. Every
// entry point that promises "byte-identical to cmd/restore at the same
// seed" — the restored job daemon above all — must draw its Options.Rand
// from here, so the promise is pinned to one constructor instead of
// duplicated constants.
func PipelineRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xc2b2ae35))
}

// Result is a restored graph plus everything needed to audit the run.
type Result struct {
	// Graph is the generated graph G-tilde.
	Graph *graph.Graph
	// TargetDV and TargetJDM are the phase 1-2 targets; the generated graph
	// realizes both exactly.
	TargetDV  dkseries.DegreeVector
	TargetJDM *dkseries.JDM
	// Estimates are the re-weighted random-walk estimates the run used.
	Estimates *estimate.Estimates
	// Subgraph is the sampled subgraph embedded in Graph (nil for Gjoka
	// et al.'s method). Its relabeled node i corresponds to Graph node i.
	Subgraph *sampling.Subgraph
	// NumAdded is the number of nodes added on top of the subgraph.
	NumAdded int
	// RewireStats reports phase 4 activity.
	RewireStats dkseries.RewireStats
	// TotalTime and RewireTime are the generation timings reported in
	// Tables IV and V: the sum of the run's phase spans (estimate through
	// phase4_rewire, without the aggregate rewire/* timers) and its
	// phase4_rewire span, to the microsecond the trace shows.
	TotalTime  time.Duration
	RewireTime time.Duration
}

// Validate re-checks every guarantee the method makes about its output:
// graph integrity, exact realization of the target degree vector and joint
// degree matrix, and (for the proposed method) that the sampled subgraph
// survives verbatim. Useful as a post-condition in user pipelines.
func (res *Result) Validate() error {
	if err := res.Graph.Validate(); err != nil {
		return err
	}
	got, err := dkseries.FromGraph(res.Graph)
	if err != nil {
		return err
	}
	for k := 1; k <= res.TargetDV.KMax(); k++ {
		have := 0
		if k <= got.KMax() {
			have = got[k]
		}
		if have != res.TargetDV[k] {
			return fmt.Errorf("core: degree vector not realized at k=%d: got %d want %d", k, have, res.TargetDV[k])
		}
	}
	if got.KMax() > res.TargetDV.KMax() {
		return fmt.Errorf("core: graph max degree %d exceeds target kmax %d", got.KMax(), res.TargetDV.KMax())
	}
	gj := dkseries.JDMFromGraph(res.Graph)
	res.TargetJDM.IterCells(func(k, kp, c int) bool {
		if got := gj.Get(k, kp); got != c {
			err = fmt.Errorf("core: JDM not realized at (%d,%d): got %d want %d", k, kp, got, c)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if gj.TotalEdges() != res.TargetJDM.TotalEdges() {
		return fmt.Errorf("core: edge total %d != target %d", gj.TotalEdges(), res.TargetJDM.TotalEdges())
	}
	if res.Subgraph != nil {
		// Multiplicity probes by binary search on the CSR snapshots'
		// sorted rows instead of per-query neighbor-list scans.
		c, sub := res.Graph.CSR(), res.Subgraph.Graph.CSR()
		for _, e := range res.Subgraph.Graph.Edges() {
			if c.Multiplicity(e.U, e.V) < sub.Multiplicity(e.U, e.V) {
				return fmt.Errorf("core: subgraph edge (%d,%d) missing from output", e.U, e.V)
			}
		}
	}
	return nil
}

// Restore runs the proposed method (Sec. IV): from a random-walk crawl it
// builds the sampled subgraph, estimates the five local properties,
// constructs realizable targets consistent with the subgraph, completes the
// subgraph with half-edge wiring, and rewires the added edges toward the
// estimated clustering spectrum.
func Restore(c *sampling.Crawl, opts Options) (*Result, error) {
	return run(c, opts, true)
}

// RestoreGjoka runs the reproducible version of Gjoka et al.'s method
// (Appendix B): identical estimation, but the targets ignore the subgraph
// structure, construction starts from an empty graph, and every edge is a
// rewiring candidate.
func RestoreGjoka(c *sampling.Crawl, opts Options) (*Result, error) {
	return run(c, opts, false)
}

// RestoreWithEstimates runs the proposed method with externally supplied
// estimates instead of computing them from the walk. Passing the original
// graph's exact properties isolates construction error from estimation
// error — the "oracle estimates" ablation.
func RestoreWithEstimates(c *sampling.Crawl, est *estimate.Estimates, opts Options) (*Result, error) {
	return runWith(c, est, opts, true)
}

func run(c *sampling.Crawl, opts Options, useSubgraph bool) (*Result, error) {
	return runWith(c, nil, opts, useSubgraph)
}

func runWith(c *sampling.Crawl, est *estimate.Estimates, opts Options, useSubgraph bool) (*Result, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("core: Options.Rand is required")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// The run's times come from its own spans: the ones recorded after
	// first. The rewiring engine's round timers stay on the caller's trace.
	engineTrace := opts.Trace
	if opts.Trace == nil {
		opts.Trace = obs.NewTrace("restore")
	}
	first := len(opts.Trace.Spans())
	if est == nil {
		if err := opts.phase("estimate", func() error {
			w, err := estimate.NewWalk(c)
			if err != nil {
				return err
			}
			est = estimate.All(w)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	var sub *sampling.Subgraph
	if useSubgraph {
		if err := opts.phase("subgraph", func() error {
			sub = sampling.BuildSubgraph(c)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Phase 1: target degree vector.
	var dvs *dvState
	var targetDeg []int
	if err := opts.phase("phase1_degree_vector", func() (err error) {
		dvs, targetDeg, err = buildTargetDegreeVector(est, sub, opts.Rand)
		return err
	}); err != nil {
		return nil, err
	}

	// Phase 2: target joint degree matrix.
	var subGraph *graph.Graph
	if sub != nil {
		subGraph = sub.Graph
	}
	var jdm *dkseries.JDM
	if err := opts.phase("phase2_jdm", func() (err error) {
		jdm, err = buildTargetJDM(est, dvs.dv, subGraph, targetDeg, opts.Rand)
		return err
	}); err != nil {
		return nil, err
	}

	// Phase 3: add nodes and edges to the subgraph (Algorithm 5).
	base := graph.New(0)
	var baseTarget []int
	if sub != nil {
		base = sub.Graph
		baseTarget = targetDeg
	}
	var built *dkseries.BuildResult
	if err := opts.phase("phase3_construct", func() (err error) {
		built, err = dkseries.Build(base, baseTarget, dvs.dv, jdm, opts.Rand)
		return err
	}); err != nil {
		return nil, err
	}

	res := &Result{
		TargetDV:  dvs.dv,
		TargetJDM: jdm,
		Estimates: est,
		Subgraph:  sub,
		NumAdded:  built.Graph.N() - base.N(),
	}

	// Phase 4: rewire toward the estimated clustering (Algorithm 6). The
	// proposed method keeps subgraph edges fixed; Gjoka et al. rewire all.
	if opts.SkipRewiring {
		res.Graph = built.Graph
	} else {
		if err := opts.phase(rewirePhase, func() error {
			var fixed []graph.Edge
			if sub != nil {
				fixed = sub.Graph.Edges()
			}
			// Two draws from the pipeline stream seed the sharded engine's
			// per-shard sub-streams. The engine's output is a function of the
			// seeds alone — never of RewireWorkers — so the pipeline remains a
			// deterministic function of Options.Rand's stream at any worker
			// count.
			seed1, seed2 := opts.Rand.Uint64(), opts.Rand.Uint64()
			res.Graph, res.RewireStats = dkseries.RewireSharded(built.Graph.N(), fixed, built.Added, dkseries.ShardedRewireOptions{
				TargetClustering: est.Clustering,
				RC:               opts.rc(),
				Seed1:            seed1,
				Seed2:            seed2,
				ForbidDegenerate: opts.ForbidDegenerate,
				Workers:          opts.RewireWorkers,
				Trace:            engineTrace,
				Ctx:              opts.Ctx,
			})
			// The engine aborts between rounds when the context fires,
			// handing back a valid but partially rewired graph. That graph
			// must never leave the pipeline: re-check the context, which
			// fails the phase and discards it.
			return opts.ctxErr()
		}); err != nil {
			return nil, err
		}
	}
	res.TotalTime, res.RewireTime = phaseTimes(opts.Trace.Spans()[first:])
	return res, nil
}

// rewirePhase names phase 4's span, the one Result.RewireTime reads.
const rewirePhase = "phase4_rewire"

// phaseTimes sums the phase spans of one run into Result.TotalTime and
// picks out its phase4_rewire span for Result.RewireTime. Aggregate timer
// spans (Count > 0) overlap phase4_rewire and are left out.
func phaseTimes(spans []obs.Span) (total, rewire time.Duration) {
	for _, sp := range spans {
		if sp.Count > 0 {
			continue
		}
		d := time.Duration(sp.DurUS) * time.Microsecond
		total += d
		if sp.Name == rewirePhase {
			rewire = d
		}
	}
	return total, rewire
}
