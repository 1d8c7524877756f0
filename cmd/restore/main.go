// Command restore runs the proposed social graph restoration method end to
// end: load (or generate) an original graph, crawl it with a simple random
// walk under a query budget, restore a graph from the sampling list alone,
// and report the accuracy of the 12 structural properties.
//
// Usage:
//
//	restore -graph original.edges -fraction 0.1 -out restored.edges
//	restore -dataset anybeat -scale 0.1 -fraction 0.1 -method gjoka
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sgr/internal/core"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/metrics"
	"sgr/internal/obs"
	"sgr/internal/oracle"
	"sgr/internal/parallel"
	"sgr/internal/prof"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("restore: ")
	var (
		path     = flag.String("graph", "", "original graph edge list")
		dataset  = flag.String("dataset", "", "generate a dataset stand-in instead of loading")
		crawlIn  = flag.String("crawl", "", "restore from a saved sampling list (crawl -save-crawl) instead of walking")
		journal  = flag.String("journal", "", "restore from an oracle crawl journal (crawl -url -journal) instead of walking")
		scale    = flag.Float64("scale", 0.1, "scale for -dataset")
		fraction = flag.Float64("fraction", 0.10, "fraction of nodes to query")
		method   = flag.String("method", "proposed", "proposed or gjoka")
		rc       = flag.Float64("rc", 500, "rewiring attempt coefficient")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("out", "", "write the restored graph here (edge list)")
		outBin   = flag.String("out-binary", "", "write the restored graph here in the binary SGRB codec (gengraph -from-binary reads it)")
		compare  = flag.Bool("compare", true, "compute the 12-property L1 comparison")
		workers  = flag.Int("workers", parallel.DefaultWorkers(),
			"worker bound for the Brandes pass of -compare's property computation (results are bit-identical at any value)")
		traceOut = flag.String("trace", "", "write the pipeline timeline here in Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev)")
		pf       = prof.AddFlags()
	)
	flag.Parse()

	if *crawlIn != "" && *journal != "" {
		log.Fatal("-crawl and -journal are mutually exclusive")
	}
	// Reject a bad -rc before any crawl work; core.Restore would too.
	if err := (core.Options{RC: *rc}).Validate(); err != nil {
		log.Fatal(err)
	}
	stopProf, err := pf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	// The canonical pipeline stream: restored (the job daemon) uses the
	// same constructor, which is what makes its results byte-identical to
	// this command at the same seed.
	r := core.PipelineRand(*seed)
	var g *graph.Graph
	switch {
	case *path != "":
		var err error
		g, _, err = graph.LoadEdgeList(*path)
		if err != nil {
			log.Fatal(err)
		}
		g, _ = graph.Preprocess(g)
	case *dataset != "":
		d, err := gen.ByName(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		g = d.Build(*scale, r)
	case *crawlIn != "", *journal != "":
		// Restoration from a saved sampling list or crawl journal needs no
		// original graph; the comparison step is skipped unless -graph is
		// also given.
	default:
		log.Fatal("one of -graph, -dataset, -crawl or -journal is required")
	}
	if g != nil {
		fmt.Printf("original: n=%d m=%d\n", g.N(), g.M())
	}

	var crawl *sampling.Crawl
	switch {
	case *crawlIn != "":
		crawl, err = sampling.LoadCrawl(*crawlIn)
		if err != nil {
			log.Fatal(err)
		}
		if len(crawl.Walk()) == 0 {
			log.Fatal("saved crawl has no walk sequence (restoration needs a random-walk crawl)")
		}
	case *journal != "":
		crawl, err = oracle.LoadCrawlFromJournal(*journal)
		if err != nil {
			log.Fatal(err)
		}
		if len(crawl.Walk()) == 0 {
			log.Fatal("journal has no walk record: the remote crawl did not complete (rerun crawl -url -journal with the same seed to resume it)")
		}
	default:
		seedNode := r.IntN(g.N())
		crawl, err = sampling.RandomWalk(sampling.NewGraphAccess(g), seedNode, *fraction, r)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("random walk: %d distinct queried nodes, %d steps\n",
		crawl.NumQueried(), len(crawl.Walk()))

	// The trace changes nothing about the restoration: spans read the
	// monotonic clock only, so the output graph is byte-identical with or
	// without -trace.
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("restore")
	}
	opts := core.Options{RC: *rc, Trace: tr, Rand: r}
	var res *core.Result
	switch *method {
	case "proposed":
		res, err = core.Restore(crawl, opts)
	case "gjoka":
		res, err = core.RestoreGjoka(crawl, opts)
	default:
		log.Fatalf("unknown method %q (want proposed or gjoka)", *method)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: n=%d m=%d (added %d nodes; rewiring accepted %d/%d swaps)\n",
		res.Graph.N(), res.Graph.M(), res.NumAdded,
		res.RewireStats.Accepted, res.RewireStats.Attempts)
	fmt.Printf("generation time: total %.3fs, rewiring %.3fs\n",
		res.TotalTime.Seconds(), res.RewireTime.Seconds())
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (trace)\n", *traceOut)
	}

	if *out != "" {
		if err := graph.SaveEdgeList(*out, res.Graph); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *outBin != "" {
		if err := graph.SaveBinary(*outBin, res.Graph); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (binary)\n", *outBin)
	}
	if *compare && g != nil {
		// -workers bounds the all-sources path pass (Brandes) of each
		// property computation; every other property loop runs serially.
		// The two graphs score sequentially, since that pass already
		// saturates the pool. The results are bit-identical at any
		// -workers value.
		popts := props.Options{Workers: *workers}
		orig := props.Compute(g, popts)
		got := props.Compute(res.Graph, popts)
		ds := metrics.PerProperty(got, orig)
		fmt.Println("normalized L1 distances:")
		for i, name := range metrics.PropertyNames {
			fmt.Printf("  %-10s %.4f\n", name, ds[i])
		}
		fmt.Printf("  %-10s %.4f +- %.4f\n", "avg", metrics.Mean(ds), metrics.StdDev(ds))
	}
}
