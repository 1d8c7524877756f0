// Command crawl samples a graph with one of the paper's crawling methods
// and writes the induced subgraph as an edge list (with original node IDs
// preserved via comment metadata). The hidden graph is either loaded
// locally (-graph) or crawled over the wire from a running graphd (-url);
// both paths are byte-identical at the same seed.
//
// Usage:
//
//	crawl -graph g.edges -method rw -fraction 0.1 -out sub.edges
//	crawl -graph g.edges -method snowball -k 50 -fraction 0.05
//	crawl -url http://127.0.0.1:8080 -fraction 0.1 -journal crawl.journal -save-crawl crawl.json
//	crawl -url http://127.0.0.1:8080 -fraction 0.1 -stats-json stats.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"sgr/internal/graph"
	"sgr/internal/oracle"
	"sgr/internal/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crawl: ")
	var (
		path      = flag.String("graph", "", "graph edge list (local crawl)")
		url       = flag.String("url", "", "graphd base URL (remote crawl), e.g. http://127.0.0.1:8080")
		apiKey    = flag.String("api-key", "", "X-API-Key identifying this crawler to graphd's rate limiter")
		journal   = flag.String("journal", "", "crawl journal path (with -url): answered queries persist here, and an interrupted crawl rerun with the same seed resumes without re-spending budget")
		retries   = flag.Int("retries", 8, "max retries per API request (with -url)")
		method    = flag.String("method", "rw", "rw, bfs, snowball, ff, mh, nbrw")
		fraction  = flag.Float64("fraction", 0.10, "fraction of nodes to query, in (0,1]")
		k         = flag.Int("k", 50, "snowball neighbor cap")
		pf        = flag.Float64("pf", 0.7, "forest fire burn probability")
		seed      = flag.Uint64("seed", 1, "random seed")
		seedNode  = flag.Int("seed-node", -1, "start node id (default: drawn from the RNG)")
		out       = flag.String("out", "", "output subgraph edge list (default stdout)")
		saveRaw   = flag.String("save-crawl", "", "also save the raw sampling list as JSON (feed to restore -crawl)")
		stats     = flag.Bool("stats", false, "print oracle transport statistics to stderr after the crawl (with -url)")
		statsJSON = flag.String("stats-json", "", "write oracle transport statistics as JSON to this path after the crawl; \"-\" = stdout (with -url)")
	)
	flag.Parse()
	if (*path == "") == (*url == "") {
		log.Fatal("exactly one of -graph or -url is required")
	}
	if *fraction <= 0 || *fraction > 1 {
		log.Fatalf("-fraction must be in (0,1], got %v", *fraction)
	}
	if *journal != "" && *url == "" {
		log.Fatal("-journal requires -url (local crawls are free to rerun)")
	}
	if *statsJSON != "" && *url == "" {
		log.Fatal("-stats-json requires -url (transport stats only exist for remote crawls)")
	}

	var access sampling.Access
	var client *oracle.Client
	if *url != "" {
		var err error
		client, err = oracle.NewClient(oracle.ClientConfig{
			BaseURL:     *url,
			APIKey:      *apiKey,
			MaxRetries:  *retries,
			JournalPath: *journal,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		access = client
	} else {
		g, _, err := graph.LoadEdgeList(*path)
		if err != nil {
			log.Fatal(err)
		}
		access = sampling.NewGraphAccess(g)
	}
	n := access.NumNodes()

	r := rand.New(rand.NewPCG(*seed, *seed^0x27d4eb2f))
	start := *seedNode
	if start < 0 {
		start = r.IntN(n)
	} else if start >= n {
		log.Fatalf("-seed-node %d out of range [0,%d)", start, n)
	}

	var c *sampling.Crawl
	var err error
	switch *method {
	case "rw":
		// The shared seeded entry point, so a daemon-side crawl (restored's
		// graphd job source) replays exactly this command's walk.
		c, err = sampling.SeededRandomWalk(access, *seedNode, *fraction, *seed)
	case "bfs":
		c, err = sampling.BFS(access, start, *fraction)
	case "snowball":
		c, err = sampling.Snowball(access, start, *k, *fraction, r)
	case "ff":
		c, err = sampling.ForestFire(access, start, *pf, *fraction, r)
	case "mh":
		c, err = sampling.MetropolisHastingsWalk(access, start, *fraction, r)
	case "nbrw":
		c, err = sampling.NonBacktrackingWalk(access, start, *fraction, r)
	default:
		log.Fatalf("unknown method %q", *method)
	}
	if client != nil && client.Err() != nil {
		// A dead oracle surfaces in walkers as a bogus "isolated node";
		// report the real cause.
		log.Fatalf("remote crawl failed: %v", client.Err())
	}
	if err != nil {
		if client != nil && client.PrivateSeen() > 0 {
			// Private answers also read as empty neighbor lists to the
			// walkers. Remote crawling cannot see privacy before spending
			// the query, so a private-heavy server needs the private set
			// supplied client-side (sampling.NewPrivateAccess over the
			// oracle client) rather than discovered by walking into it.
			log.Fatalf("%v (%d queried node(s) answered private — the server hides their neighbor lists)",
				err, client.PrivateSeen())
		}
		log.Fatal(err)
	}
	if client != nil {
		fmt.Fprintf(os.Stderr, "crawl: oracle: %d nodes fetched over HTTP in %d requests (%d replayed from journal)\n",
			client.NodesFetched(), client.Requests(), int64(c.NumQueried())-client.NodesFetched())
		if *stats {
			st := client.Stats()
			fmt.Fprintf(os.Stderr, "crawl: oracle stats: queries=%d p50=%v p99=%v retries=%d rate_limited=%d backoff=%v\n",
				st.Queries, st.QueryP50, st.QueryP99, st.Retries, st.RateLimited, st.Backoff)
			fmt.Fprintf(os.Stderr, "crawl: oracle stats: cache_hits=%d prefetch_batches=%d prefetch_nodes=%d\n",
				st.CacheHits, st.PrefetchBatches, st.PrefetchNodes)
		}
		if *statsJSON != "" {
			if err := writeStatsJSON(*statsJSON, client.Stats()); err != nil {
				log.Fatal(err)
			}
		}
		if *journal != "" && len(c.Walk()) > 0 {
			if err := client.RecordWalk(c.Walk()); err != nil {
				log.Fatal(err)
			}
		}
	}
	sub := sampling.BuildSubgraph(c)
	fmt.Fprintf(os.Stderr, "crawl: queried %d nodes; subgraph n=%d m=%d (%d queried, %d visible)\n",
		c.NumQueried(), sub.Graph.N(), sub.Graph.M(), sub.NumQueried, sub.Graph.N()-sub.NumQueried)
	if *saveRaw != "" {
		if err := sampling.SaveCrawl(*saveRaw, c); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "crawl: saved sampling list to %s\n", *saveRaw)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "# crawl method=%s fraction=%v seed=%d\n", *method, *fraction, *seed)
	fmt.Fprintf(w, "# subgraph node i maps to original node id below\n")
	for i, orig := range sub.Nodes {
		fmt.Fprintf(w, "# node %d = original %d queried=%v\n", i, orig, sub.IsQueried(i))
	}
	if err := graph.WriteEdgeList(w, sub.Graph); err != nil {
		log.Fatal(err)
	}
}

// writeStatsJSON emits the oracle transport stats machine-readably, for
// harnesses that post-process crawl telemetry ("-" = stdout).
func writeStatsJSON(path string, st oracle.Stats) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}
