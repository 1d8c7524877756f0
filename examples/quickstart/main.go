// Quickstart: the full social-graph-restoration workflow on a small
// synthetic social graph.
//
// It walks through the exact pipeline of the paper: crawl a hidden graph
// with a simple random walk under a 10% query budget, inspect the sampled
// subgraph and the re-weighted random-walk estimates, restore a full graph
// from the sampling list alone, and compare the 12 structural properties of
// the restoration against the hidden original.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"sgr"
	"sgr/internal/gen"
)

func main() {
	log.SetFlags(0)
	r := rand.New(rand.NewPCG(42, 43))

	// The "hidden" original graph: a power-law-cluster social network.
	original := gen.HolmeKim(3000, 4, 0.5, r)
	fmt.Printf("hidden original: n=%d m=%d avg-degree=%.2f\n",
		original.N(), original.M(), original.AvgDegree())

	// Crawl it: the only access is "query a node, get its neighbor list".
	crawl, err := sgr.RandomWalk(original, 0, 0.10, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random walk: queried %d nodes (10%%), walk length %d\n",
		crawl.NumQueried(), len(crawl.Walk()))

	// The induced subgraph G' (what subgraph sampling would return).
	sub := sgr.BuildSubgraph(crawl)
	fmt.Printf("sampled subgraph G': n=%d m=%d (%d queried + %d visible)\n",
		sub.Graph.N(), sub.Graph.M(), sub.NumQueried, sub.Graph.N()-sub.NumQueried)

	// Re-weighted random-walk estimates of the local properties.
	est, err := sgr.Estimate(crawl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimates: n-hat=%.0f (true %d), kbar-hat=%.2f (true %.2f)\n",
		est.N, original.N(), est.AvgDeg, original.AvgDegree())

	// Restore: generate a graph preserving the estimates AND the subgraph.
	res, err := sgr.Restore(crawl, sgr.Options{RC: 100, Rand: r})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored graph: n=%d m=%d (%d nodes added to G', %d/%d rewires accepted)\n",
		res.Graph.N(), res.Graph.M(), res.NumAdded,
		res.RewireStats.Accepted, res.RewireStats.Attempts)

	// Score the restoration on the paper's 12 structural properties.
	origProps := sgr.ComputeProperties(original, sgr.PropertyOptions{})
	restProps := sgr.ComputeProperties(res.Graph, sgr.PropertyOptions{})
	distances := sgr.CompareL1(restProps, origProps)
	fmt.Println("normalized L1 distance per property (lower is better):")
	sum := 0.0
	for i, name := range sgr.PropertyNames {
		fmt.Printf("  %-8s %.3f\n", name, distances[i])
		sum += distances[i]
	}
	fmt.Printf("  average  %.3f\n", sum/float64(len(distances)))
}
