// Command restored serves graph restoration as a service: an asynchronous
// job daemon running the crawl → dK-series → rewiring pipeline behind an
// HTTP/JSON API, with a content-addressed result cache (and optional disk
// persistence) in front of the workers. Results are byte-identical to
// `restore -seed` run offline on the same crawl.
//
// Usage:
//
//	restored -addr 127.0.0.1:8090
//	restored -addr 127.0.0.1:0 -addr-file addr.txt -workers 4 -cache-dir /var/cache/restored
//
// Submit work with POST /v1/jobs (an inline crawl JSON, an uploaded crawl
// journal, or a graphd URL to crawl server-side), poll GET /v1/jobs/{id},
// cancel with DELETE /v1/jobs/{id}, download GET /v1/jobs/{id}/graph
// (binary SGRB; ?format=edgelist for text) and /props. /v1/healthz and
// /v1/metrics match graphd's.
//
// With -cache-dir set the daemon is crash-safe: accepted jobs are logged
// to a write-ahead journal before they are queued, and a restart replays
// unfinished jobs against the same cache dir — kill -9 mid-pipeline loses
// nothing, and recovered results stay byte-identical to offline restore.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"

	"sgr/internal/daemon"
	"sgr/internal/parallel"
	"sgr/internal/prof"
	"sgr/internal/restored"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("restored: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address here once listening (for scripts)")
		workers  = flag.Int("workers", parallel.DefaultWorkers(), "restoration worker pool width")
		queue    = flag.Int("queue", 64, "bounded job-queue depth (full queue answers 429 + Retry-After)")
		cacheDir = flag.String("cache-dir", "", "persist the content-addressed result cache and the job WAL here")
		propsW   = flag.Int("props-workers", 1, "worker bound for /props property computation (bounds CPU; the bytes are the same at any value)")
		rewireW  = flag.Int("rewire-workers", 1, "per-job worker bound for phase-4 rewiring (output is byte-identical at any value)")
		drain    = flag.Duration("drain", daemon.DefaultDrainTimeout, "graceful-drain window for in-flight requests on shutdown")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (live-profiling opt-in)")
	)
	flag.Parse()

	svc, err := restored.New(restored.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheDir:      *cacheDir,
		PropsWorkers:  *propsW,
		RewireWorkers: *rewireW,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := daemon.WriteAddrFile(*addrFile, ln.Addr().String()); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("serving restoration jobs on http://%s (%d workers, queue %d, cache %s)",
		ln.Addr(), *workers, *queue, cacheDirName(*cacheDir))

	handler := restored.NewServer(svc).Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		prof.Mount(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	if err := daemon.Serve(ln, handler, daemon.ServeConfig{Logf: log.Printf, DrainTimeout: *drain}); err != nil {
		log.Fatal(err)
	}
	svc.Close()
	for _, m := range svc.Registry().Snapshot() {
		log.Printf("%s %d", m.Name, m.Value)
	}
}

func cacheDirName(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
