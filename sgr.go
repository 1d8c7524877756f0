package sgr

import (
	"math/rand/v2"

	"sgr/internal/core"
	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/graph"
	"sgr/internal/harness"
	"sgr/internal/layout"
	"sgr/internal/metrics"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// Re-exported core types. Aliases keep the implementation packages internal
// while giving users a single import path.
type (
	// Graph is an undirected multigraph with dense integer node IDs.
	Graph = graph.Graph
	// Edge is an undirected edge instance.
	Edge = graph.Edge
	// Crawl is the outcome of a crawling method: queried nodes, their
	// neighbor lists (the paper's sampling list L), and the walk sequence.
	// It is immutable and read through accessors (Queried, Lists, Walk and
	// the dense labeling the crawl computes once); its fields are
	// unexported, so a struct literal no longer compiles. NewCrawl builds
	// one.
	Crawl = sampling.Crawl
	// Subgraph is the induced subgraph G' of a crawl.
	Subgraph = sampling.Subgraph
	// Walk is a preprocessed random-walk sample ready for estimation.
	Walk = estimate.Walk
	// Estimates bundles the five local-property estimates.
	Estimates = estimate.Estimates
	// Options configures Restore / RestoreGjoka.
	Options = core.Options
	// Result is a restored graph with its targets and timings.
	Result = core.Result
	// Properties bundles the paper's 12 structural properties.
	Properties = props.Result
	// PropertyOptions tunes property computation.
	PropertyOptions = props.Options
	// RewireStats reports phase-4 rewiring activity.
	RewireStats = dkseries.RewireStats
	// EvalConfig configures a full method-comparison experiment.
	EvalConfig = harness.Config
	// Evaluation aggregates a method-comparison experiment.
	Evaluation = harness.Evaluation
	// Method names one of the six compared methods.
	Method = harness.Method
)

// The six compared methods (Sec. V-D).
const (
	MethodBFS      = harness.MethodBFS
	MethodSnowball = harness.MethodSnowball
	MethodFF       = harness.MethodFF
	MethodRW       = harness.MethodRW
	MethodGjoka    = harness.MethodGjoka
	MethodProposed = harness.MethodProposed
)

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// LoadGraph reads a whitespace edge-list file, relabeling nodes densely.
func LoadGraph(path string) (*Graph, error) {
	g, _, err := graph.LoadEdgeList(path)
	return g, err
}

// SaveGraph writes the graph as an edge-list file.
func SaveGraph(path string, g *Graph) error { return graph.SaveEdgeList(path, g) }

// Preprocess mirrors the paper's dataset preparation: simplify and extract
// the largest connected component.
func Preprocess(g *Graph) *Graph {
	clean, _ := graph.Preprocess(g)
	return clean
}

// RandomWalk crawls g by simple random walk from the seed node until the
// given fraction of nodes has been queried (Sec. III-B).
func RandomWalk(g *Graph, seed int, fraction float64, r *rand.Rand) (*Crawl, error) {
	return sampling.RandomWalk(sampling.NewGraphAccess(g), seed, fraction, r)
}

// NewCrawl builds a crawl from parallel queried-node and neighbor-list
// slices plus an optional walk sequence, rejecting inconsistent input.
func NewCrawl(queried []int, lists [][]int, walk []int) (*Crawl, error) {
	return sampling.NewCrawl(queried, lists, walk)
}

// BuildSubgraph constructs the induced subgraph G' of a crawl (Sec. III-D).
func BuildSubgraph(c *Crawl) *Subgraph { return sampling.BuildSubgraph(c) }

// Estimate runs the five re-weighted random-walk estimators (Sec. III-E).
func Estimate(c *Crawl) (*Estimates, error) {
	w, err := estimate.NewWalk(c)
	if err != nil {
		return nil, err
	}
	return estimate.All(w), nil
}

// Restore runs the proposed restoration method (Sec. IV).
func Restore(c *Crawl, opts Options) (*Result, error) { return core.Restore(c, opts) }

// RestoreGjoka runs the reproducible Gjoka et al. baseline (Appendix B).
func RestoreGjoka(c *Crawl, opts Options) (*Result, error) { return core.RestoreGjoka(c, opts) }

// ComputeProperties evaluates the paper's 12 structural properties.
func ComputeProperties(g *Graph, opts PropertyOptions) *Properties {
	return props.Compute(g, opts)
}

// CompareL1 returns the 12 normalized L1 distances between a generated
// graph's properties and the original's, in PropertyNames order.
func CompareL1(generated, original *Properties) []float64 {
	return metrics.PerProperty(generated, original)
}

// PropertyNames lists the 12 properties in Table II column order.
var PropertyNames = metrics.PropertyNames

// Evaluate runs the paper's full comparison protocol on an original graph.
func Evaluate(g *Graph, cfg EvalConfig) (*Evaluation, error) {
	return harness.Evaluate(g, cfg)
}

// SaveVisualization lays the graph out force-directed and writes an SVG,
// reproducing the paper's Fig. 4 style.
func SaveVisualization(path string, g *Graph, title string, r *rand.Rand) error {
	return layout.SaveSVG(path, g, layout.Options{Rand: r}, layout.SVGOptions{Title: title})
}
