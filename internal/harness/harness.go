// Package harness drives the paper's experiments (Sec. V-VI): it applies
// the six compared methods to an original graph under the paper's protocol —
// per run, one uniformly random seed node starts BFS, snowball, forest fire
// and a random walk, and the same random walk feeds subgraph sampling,
// Gjoka et al.'s method and the proposed method — then scores every
// generated graph on the 12 structural properties with the normalized L1
// distance, and renders the tables and figure series of the paper.
package harness

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"sgr/internal/core"
	"sgr/internal/graph"
	"sgr/internal/metrics"
	"sgr/internal/obs"
	"sgr/internal/parallel"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// Method identifies one of the six compared methods.
type Method string

// The six methods of the evaluation (Sec. V-D).
const (
	MethodBFS      Method = "BFS"
	MethodSnowball Method = "Snowball"
	MethodFF       Method = "FF"
	MethodRW       Method = "RW"
	MethodGjoka    Method = "Gjoka et al."
	MethodProposed Method = "Proposed"
)

// AllMethods lists the methods in the paper's table order.
var AllMethods = []Method{
	MethodBFS, MethodSnowball, MethodFF, MethodRW, MethodGjoka, MethodProposed,
}

// ParseMethod resolves a method name (case-sensitive, as printed).
func ParseMethod(s string) (Method, error) {
	for _, m := range AllMethods {
		if string(m) == s {
			return m, nil
		}
	}
	return "", fmt.Errorf("harness: unknown method %q", s)
}

// Config controls one evaluation.
type Config struct {
	// Fraction is the percentage of queried nodes as a fraction (0.10 for
	// the paper's main tables, 0.01 for Table V).
	Fraction float64
	// Runs is the number of independent runs averaged (10 in the paper;
	// smaller values keep benches fast).
	Runs int
	// RC is the rewiring coefficient (paper 500).
	RC float64
	// SnowballK is snowball sampling's per-node neighbor cap (paper 50).
	SnowballK int
	// ForestFirePF is forest fire's burn probability (paper 0.7).
	ForestFirePF float64
	// Seed derives all per-run randomness.
	Seed uint64
	// Methods restricts evaluation to a subset (nil = all six).
	Methods []Method
	// Walker selects the random-walk variant feeding RW subgraph sampling
	// and the two generation methods (default WalkerSimple). The paper
	// suggests combining improved walks with the proposed method as future
	// work. The estimators assume the simple walk: WalkerNonBacktracking
	// keeps its degree-proportional stationary distribution, but the
	// clustering estimator's k/(k-1) factor overstates its c(k);
	// WalkerMetropolis is uniform at stationarity, which every 1/k
	// reweighting misreads. WalkerFrontier interleaves several walkers,
	// which weakens the consecutive-step estimators (TE, clustering).
	Walker Walker
	// FrontierDim is the walker count for WalkerFrontier (default 4).
	FrontierDim int
	// Access, when non-nil, supplies the crawlers' view of the hidden
	// graph — e.g. an oracle.Client so the whole protocol crawls a remote
	// graphd instead of in-process memory (restoration then runs locally
	// on the fetched sampling lists). The factory is called once per
	// crawl; returning a shared concurrency-safe Access is fine, since
	// cells only ever read through it. The default wraps g in
	// sampling.NewGraphAccess. Evaluations are byte-identical across any
	// two Access implementations serving the same neighbor lists.
	Access func(g *graph.Graph) sampling.Access
	// Restorer, when non-nil, performs the generation step of the two
	// restoration methods (Gjoka et al., Proposed) in place of the
	// in-process core.Restore/RestoreGjoka calls — the
	// restoration-as-a-service seam, mirroring what Access is for crawling.
	// A deployment whose protocol pins per-cell seeds can route generation
	// through a shared restored job service and let its content-addressed
	// cache dedupe identical (crawl, options) cells across sweep
	// configurations. Implementations must be concurrency-safe (cells run
	// in parallel) and deterministic given (method, crawl, opts): Evaluate's
	// byte-identical-at-any-worker-count guarantee extends to any Restorer
	// honoring that contract, exactly as it does to Access.
	Restorer func(method Method, c *sampling.Crawl, opts core.Options) (*core.Result, error)
	// PropOpts tunes property computation (pivot thresholds etc.). Its
	// Workers bounds the all-sources path pass (Brandes) of props.Compute
	// inside each cell (default 1) and for the original graph, which runs
	// before the cells fan out (default: the pool width); every other
	// property loop runs serially. Properties are bit-identical at any
	// value, so it bounds CPU only.
	PropOpts props.Options
	// Workers bounds how many evaluation cells — independent
	// (run, method) jobs — execute concurrently (<= 0 selects
	// parallel.DefaultWorkers). Every cell derives its own PCG stream
	// from Seed, so the results are byte-identical at any worker count.
	Workers int
	// RewireWorkers bounds the propose-phase parallelism inside each
	// cell's phase-4 rewiring (default 1: the engine's parallelism unit
	// is the cell, and nesting rewiring pools under Workers concurrent
	// cells multiplies the goroutine count). Rewiring output is
	// byte-identical at any value.
	RewireWorkers int
	// Original, when non-nil, is the precomputed property result of the
	// original graph (from ComputeOriginal), letting sweeps that evaluate
	// one graph under many configurations skip recomputing it per call.
	Original *props.Result
	// CellTime, when non-nil, receives one observation per evaluation cell:
	// the cell's generation wall time in microseconds. The histogram is a
	// pure observability output — it is fed during the ordered merge, after
	// all cells complete, so it never influences scheduling or results and
	// the byte-identical-at-any-worker-count guarantee is unaffected. Wire
	// it into an obs.Registry to watch a long sweep's cell latency p99 live.
	CellTime *obs.Histogram
}

// ComputeOriginal evaluates the original graph's 12 properties under this
// configuration's property options — exactly what Evaluate computes when
// Config.Original is nil. Nothing else runs alongside it, so it uses the
// whole pool (PropOpts.Workers if set, else the pool width); the result
// is the same at any width.
func (c Config) ComputeOriginal(g *graph.Graph) *props.Result {
	return props.Compute(g, c.originalPropOpts())
}

// originalPropOpts is PropOpts with Workers defaulting to the pool width:
// Config.Workers, else parallel.DefaultWorkers.
func (c Config) originalPropOpts() props.Options {
	o := c.PropOpts
	if o.Workers <= 0 {
		o.Workers = c.Workers
	}
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers()
	}
	return o
}

// Walker selects the crawl variant used for the shared random walk.
type Walker string

// Walk variants available to the protocol.
const (
	WalkerSimple          Walker = ""         // simple random walk (paper)
	WalkerNonBacktracking Walker = "nbrw"     // Lee, Xu & Eun
	WalkerMetropolis      Walker = "mh"       // Metropolis-Hastings
	WalkerFrontier        Walker = "frontier" // Ribeiro & Towsley
)

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.RC <= 0 {
		c.RC = 500
	}
	if c.SnowballK <= 0 {
		c.SnowballK = 50
	}
	if c.ForestFirePF <= 0 {
		c.ForestFirePF = 0.7
	}
	if c.Methods == nil {
		c.Methods = AllMethods
	}
	if c.Access == nil {
		c.Access = func(g *graph.Graph) sampling.Access { return sampling.NewGraphAccess(g) }
	}
	if c.Restorer == nil {
		c.Restorer = DefaultRestorer
	}
	// Property computation inside a cell defaults to serial: the engine's
	// parallelism unit is the cell, and nesting GOMAXPROCS-wide property
	// pools under Workers concurrent cells would square the goroutine
	// count and Brandes scratch. The value changes no bits.
	if c.PropOpts.Workers <= 0 {
		c.PropOpts.Workers = 1
	}
	if c.RewireWorkers <= 0 {
		c.RewireWorkers = 1
	}
	return c
}

// MethodStats aggregates one method's results over runs.
type MethodStats struct {
	Method Method
	// PerProperty[i] holds the run-specific L1 distances of property i.
	PerProperty [12][]float64
	// TotalTimes and RewireTimes hold per-run generation timings; rewire
	// times stay zero for subgraph sampling.
	TotalTimes  []time.Duration
	RewireTimes []time.Duration
}

// PropertyMeans returns the mean L1 distance per property.
func (s *MethodStats) PropertyMeans() [12]float64 {
	var out [12]float64
	for i := range s.PerProperty {
		out[i] = metrics.Mean(s.PerProperty[i])
	}
	return out
}

// AvgSD returns the average and standard deviation of the L1 distance over
// the 12 properties, computed per the paper: first average each property
// over runs, then take mean and SD across the 12 property means.
func (s *MethodStats) AvgSD() (avg, sd float64) {
	means := s.PropertyMeans()
	return metrics.Mean(means[:]), metrics.StdDev(means[:])
}

// MeanTotalTime returns the mean generation time.
func (s *MethodStats) MeanTotalTime() time.Duration {
	return meanDuration(s.TotalTimes)
}

// MeanRewireTime returns the mean rewiring time.
func (s *MethodStats) MeanRewireTime() time.Duration {
	return meanDuration(s.RewireTimes)
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Evaluation is the outcome of Evaluate: per-method aggregated stats plus
// the original graph's property values.
type Evaluation struct {
	Original *props.Result
	Stats    map[Method]*MethodStats
	Config   Config
}

// runStream is the golden-ratio increment deriving the per-run PCG stream
// from the master seed (stream run*runStream+1 for run 0, 1, 2, ...).
const runStream = 0x9e3779b97f4a7c15

// cellStream is a second odd mixing constant separating the per-cell
// streams of the methods within one run from each other and from the run's
// walk stream.
const cellStream = 0xbf58476d1ce4e5b9

// runRand returns the RNG of run: it picks the run's seed node and drives
// the shared random walk.
func (c Config) runRand(run int) *rand.Rand {
	return rand.New(rand.NewPCG(c.Seed, uint64(run)*runStream+1))
}

// cellRand returns the RNG of one (run, method) evaluation cell. The
// stream is keyed by the method's position in AllMethods, not in
// cfg.Methods, so evaluating a subset replays exactly the streams the full
// evaluation would use.
func (c Config) cellRand(run int, m Method) *rand.Rand {
	mi := uint64(0)
	for i, am := range AllMethods {
		if am == m {
			mi = uint64(i)
			break
		}
	}
	return rand.New(rand.NewPCG(c.Seed, uint64(run)*runStream+1+(mi+1)*cellStream))
}

// runSetup is the per-run state shared by the run's cells. The walk is
// computed lazily by the first cell that needs it (sync.Once publishes it
// race-free) and released once the run's last cell finishes, so only the
// active runs' crawls occupy memory during a long sweep.
type runSetup struct {
	seed    int
	once    sync.Once
	walk    *sampling.Crawl
	walkErr error
	pending atomic.Int32
}

// sharedWalk returns the run's walk, crawling it on first use. The RNG
// replays the run stream past the seed-node draw, so the walk is identical
// no matter which cell triggers it.
func (s *runSetup) sharedWalk(g *graph.Graph, cfg Config, run int) (*sampling.Crawl, error) {
	s.once.Do(func() {
		r := cfg.runRand(run)
		r.IntN(g.N()) // replay the seed-node draw
		s.walk, s.walkErr = crawlWalk(g, cfg, s.seed, r)
	})
	return s.walk, s.walkErr
}

// cellResult is the outcome of one (run, method) cell.
type cellResult struct {
	dists  [12]float64
	total  time.Duration
	rewire time.Duration
}

// Evaluate runs the full protocol on the original graph g.
//
// Every (run, method) cell is an independent job on a bounded worker pool
// (Config.Workers wide) with its own PCG stream, and results are merged in
// (run, method) order — so for a fixed Seed the evaluation is
// deterministic and identical at any worker count. Cells only read the
// shared original graph and the run's shared crawl, which keeps the
// engine race-free.
func Evaluate(g *graph.Graph, cfg Config) (*Evaluation, error) {
	origOpts := cfg.originalPropOpts()
	cfg = cfg.withDefaults()
	// Build the original graph's CSR snapshot once, serially, before
	// anything fans out: CSR() construction is not goroutine-safe, and one
	// immutable snapshot then serves every property cell of this
	// evaluation (and both sides of any D-measure computed on the same
	// graphs) for free. Each generated graph's snapshot is likewise built
	// once inside its cell's props.Compute and shared across that graph's
	// ten properties.
	g.CSR()
	orig := cfg.Original
	if orig == nil {
		orig = props.Compute(g, origOpts)
	}
	ev := &Evaluation{Original: orig, Stats: make(map[Method]*MethodStats), Config: cfg}
	for _, m := range cfg.Methods {
		ev.Stats[m] = &MethodStats{Method: m}
	}

	// Per-run seed nodes are drawn up front (cheap); the walks follow
	// lazily inside the cells.
	nm := len(cfg.Methods)
	setups := make([]*runSetup, cfg.Runs)
	for run := range setups {
		setups[run] = &runSetup{seed: cfg.runRand(run).IntN(g.N())}
		setups[run].pending.Store(int32(nm))
	}

	// The (run, method) cells, each on its own stream.
	cells, err := parallel.Map(cfg.Workers, cfg.Runs*nm, func(i int) (cellResult, error) {
		run, m := i/nm, cfg.Methods[i%nm]
		s := setups[run]
		defer func() {
			// Last cell of the run out turns off the lights: drop the
			// shared walk so long sweeps don't hold every run's crawl.
			if s.pending.Add(-1) == 0 {
				s.walk = nil
			}
		}()
		var walk *sampling.Crawl
		if m == MethodRW || m == MethodGjoka || m == MethodProposed {
			w, err := s.sharedWalk(g, cfg, run)
			if err != nil {
				return cellResult{}, fmt.Errorf("harness: run %d: %w", run, err)
			}
			walk = w
		}
		gg, total, rewire, err := generate(g, cfg, m, s.seed, walk, cfg.cellRand(run, m))
		if err != nil {
			return cellResult{}, fmt.Errorf("harness: run %d: %s: %w", run, m, err)
		}
		genProps := props.Compute(gg, cfg.PropOpts)
		var cr cellResult
		copy(cr.dists[:], metrics.PerProperty(genProps, orig))
		cr.total, cr.rewire = total, rewire
		return cr, nil
	})
	if err != nil {
		return nil, err
	}

	// Ordered merge, replicating the sequential loop's append order.
	for run := 0; run < cfg.Runs; run++ {
		for mi, m := range cfg.Methods {
			cr := cells[run*nm+mi]
			st := ev.Stats[m]
			for i, d := range cr.dists {
				st.PerProperty[i] = append(st.PerProperty[i], d)
			}
			st.TotalTimes = append(st.TotalTimes, cr.total)
			st.RewireTimes = append(st.RewireTimes, cr.rewire)
			if cfg.CellTime != nil {
				cfg.CellTime.Observe(cr.total.Microseconds())
			}
		}
	}
	return ev, nil
}

// accessErr surfaces a hard failure from Access implementations that
// carry one (oracle.Client.Err): NeighborsOf cannot return errors, so a
// dead oracle otherwise reads as empty neighbor lists — walks fail with a
// bogus "isolated node", and BFS-family crawls silently truncate below
// budget. Checked after every crawl, win or lose.
func accessErr(access sampling.Access) error {
	if a, ok := access.(interface{ Err() error }); ok && a.Err() != nil {
		return fmt.Errorf("harness: graph access failed: %w", a.Err())
	}
	return nil
}

// crawlWalk performs the configured walk variant.
func crawlWalk(g *graph.Graph, cfg Config, seed int, r *rand.Rand) (*sampling.Crawl, error) {
	access := cfg.Access(g)
	c, err := crawlWalkOn(access, cfg, seed, r)
	if aerr := accessErr(access); aerr != nil {
		return nil, aerr
	}
	return c, err
}

func crawlWalkOn(access sampling.Access, cfg Config, seed int, r *rand.Rand) (*sampling.Crawl, error) {
	switch cfg.Walker {
	case WalkerSimple:
		return sampling.RandomWalk(access, seed, cfg.Fraction, r)
	case WalkerNonBacktracking:
		return sampling.NonBacktrackingWalk(access, seed, cfg.Fraction, r)
	case WalkerMetropolis:
		return sampling.MetropolisHastingsWalk(access, seed, cfg.Fraction, r)
	case WalkerFrontier:
		dim := cfg.FrontierDim
		if dim <= 0 {
			dim = 4
		}
		seeds := make([]int, dim)
		seeds[0] = seed
		for i := 1; i < dim; i++ {
			seeds[i] = r.IntN(access.NumNodes())
		}
		return sampling.FrontierSampling(access, seeds, cfg.Fraction, r)
	}
	return nil, fmt.Errorf("harness: unknown walker %q", cfg.Walker)
}

// generate produces the generated graph for one method in one run. It only
// reads g and walk, so concurrent cells may share both.
func generate(g *graph.Graph, cfg Config, m Method, seed int, walk *sampling.Crawl, r *rand.Rand) (*graph.Graph, time.Duration, time.Duration, error) {
	subgraphOf := func(c *sampling.Crawl) (*graph.Graph, time.Duration) {
		start := time.Now()
		sub := sampling.BuildSubgraph(c)
		return sub.Graph, time.Since(start)
	}
	// crawlVia runs one crawler against a fresh Access, surfacing hard
	// access failures that crawlers cannot report themselves (BFS-family
	// methods would otherwise return silently truncated crawls when a
	// remote oracle dies).
	crawlVia := func(crawler func(sampling.Access) (*sampling.Crawl, error)) (*sampling.Crawl, error) {
		access := cfg.Access(g)
		c, err := crawler(access)
		if aerr := accessErr(access); aerr != nil {
			return nil, aerr
		}
		return c, err
	}
	switch m {
	case MethodBFS:
		c, err := crawlVia(func(a sampling.Access) (*sampling.Crawl, error) {
			return sampling.BFS(a, seed, cfg.Fraction)
		})
		if err != nil {
			return nil, 0, 0, err
		}
		sg, d := subgraphOf(c)
		return sg, d, 0, nil
	case MethodSnowball:
		c, err := crawlVia(func(a sampling.Access) (*sampling.Crawl, error) {
			return sampling.Snowball(a, seed, cfg.SnowballK, cfg.Fraction, r)
		})
		if err != nil {
			return nil, 0, 0, err
		}
		sg, d := subgraphOf(c)
		return sg, d, 0, nil
	case MethodFF:
		c, err := crawlVia(func(a sampling.Access) (*sampling.Crawl, error) {
			return sampling.ForestFire(a, seed, cfg.ForestFirePF, cfg.Fraction, r)
		})
		if err != nil {
			return nil, 0, 0, err
		}
		sg, d := subgraphOf(c)
		return sg, d, 0, nil
	case MethodRW:
		sg, d := subgraphOf(walk)
		return sg, d, 0, nil
	case MethodGjoka, MethodProposed:
		res, err := cfg.Restorer(m, walk, core.Options{RC: cfg.RC, RewireWorkers: cfg.RewireWorkers, Rand: r})
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Graph, res.TotalTime, res.RewireTime, nil
	}
	return nil, 0, 0, fmt.Errorf("unknown method %q", m)
}

// DefaultRestorer is Config.Restorer's default: the in-process pipeline.
func DefaultRestorer(m Method, c *sampling.Crawl, opts core.Options) (*core.Result, error) {
	if m == MethodGjoka {
		return core.RestoreGjoka(c, opts)
	}
	return core.Restore(c, opts)
}
