package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgr/internal/core"
	"sgr/internal/dkseries"
	"sgr/internal/graph"
	"sgr/internal/loadgen"
	"sgr/internal/obs"
	"sgr/internal/oracle"
	"sgr/internal/props"
	"sgr/internal/restored"
	"sgr/internal/sampling"
)

// serveSize is the serve-mix input size.
type serveSize struct {
	scale    float64
	fraction float64
	rc       float64
	rate     float64 // scheduled ops/s across the whole mix
	sample   int     // fresh jobs compared byte-for-byte with offline restores
	scored   int     // of those, how many the quality check scores
}

// serveFull.rate keeps restored's one worker about a quarter busy on a
// quiet host and about half busy when the shared host runs slower (see
// README.md, "serve-mix rate"). A 25-second run has about 750 events,
// 450 neighbor queries and 75 fresh jobs, enough for the reported p90
// lateness and p90 query latency; serveTiny.rate gives a 2.5-second smoke
// run enough too.
var serveFull = serveSize{scale: 0.25, fraction: 0.1, rc: 5, rate: 30, sample: 3, scored: 3}
var serveTiny = serveSize{scale: 0.03, fraction: 0.1, rc: 5, rate: 150, sample: 2, scored: 2}

const (
	batchSize    = 8
	pollInterval = 10 * time.Millisecond
	jobDeadline  = 60 * time.Second
	reqTimeout   = 30 * time.Second
	// lateLimitMS is the p90 lateness, and the p95 slot wait, above which
	// a run is flagged as not delivering its schedule.
	lateLimitMS = 10
)

// target is one daemon under load: a client whose connections, and
// in-flight requests, are capped at nproc by a semaphore of slots.
type target struct {
	url         string
	client      *http.Client
	sem         chan struct{}
	inflight    atomic.Int64
	maxInflight atomic.Int64

	mu    sync.Mutex
	waits []float64 // ms each request waited for a slot
}

func newTarget(url string, conns int) *target {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &target{url: url, client: &http.Client{Transport: tp, Timeout: reqTimeout}, sem: make(chan struct{}, conns)}
}

// do issues one request and reads the whole answer. onSlot, if not nil,
// is called once the request holds a slot, just before it is sent.
func (t *target) do(method, path string, body []byte, onSlot func()) (int, []byte, error) {
	t0 := time.Now()
	t.sem <- struct{}{}
	defer func() { <-t.sem }()
	wait := since(t0) * 1e3
	t.mu.Lock()
	t.waits = append(t.waits, wait)
	t.mu.Unlock()
	if onSlot != nil {
		onSlot()
	}
	n := t.inflight.Add(1)
	defer t.inflight.Add(-1)
	for {
		m := t.maxInflight.Load()
		if n <= m || t.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveEnv is the state one serve-mix set-up builds.
type serveEnv struct {
	g           *graph.Graph
	origProps   *props.Result // the quality check's reference
	crawlJSON   []byte
	sched       *loadgen.Schedule
	refs        map[uint64][]byte // sample job seed -> offline restore bytes
	refStats    []dkseries.RewireStats
	sampleSeeds []uint64 // the refs' seeds in schedule order
	graphd      *daemon
	restored    *daemon
	pageSize    int
}

// freshJob is the record of one OpJob lifecycle.
type freshJob struct {
	traced  bool
	latMS   float64
	queueUS int64
	phaseUS int64
	phases  map[string]float64
}

// loadRun is the state of one open-loop pass over the schedule.
type loadRun struct {
	env      *serveEnv
	tr       *tracer
	graphd   *target
	restored *target
	csr      *graph.CSR
	rc       float64

	graphdExpected atomic.Int64 // served-query charges the clients' 2xx answers imply
	submitsOK      atomic.Int64 // 2xx POST /v1/jobs
	resubmitsOK    atomic.Int64
	resubmitsDone  atomic.Int64 // resubmits answered with the finished result

	mu       sync.Mutex
	late     []float64            // ms from each event's due time until its first request held a slot
	lat      map[string][]float64 // per op, ms from due time
	jobs     []freshJob
	failures map[string]int // per op:reason
	problems []string
	verified map[uint64]*graph.Graph // sample job seed -> its checked download
}

func (l *loadRun) fail(op, reason string) {
	l.mu.Lock()
	l.failures[op+":"+reason]++
	l.mu.Unlock()
}

func (l *loadRun) problem(format string, args ...any) {
	l.mu.Lock()
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// sent returns the onSlot hook of an event's first request: it records
// how late the request went out against the event's due time, counting
// both the dispatcher's delay and the wait for a connection slot.
func (l *loadRun) sent(due time.Time) func() {
	return func() {
		ms := since(due) * 1e3
		l.mu.Lock()
		l.late = append(l.late, ms)
		l.mu.Unlock()
	}
}

func (l *loadRun) record(op string, due time.Time) {
	ms := since(due) * 1e3
	l.mu.Lock()
	l.lat[op] = append(l.lat[op], ms)
	l.mu.Unlock()
}

// runServe is the serve-mix workload: graphd serves the restore-rc500
// graph, restored runs one pipeline worker with a disk cache and WAL, and
// one process sends the loadgen schedule to both in an open loop.
// restored.cpu_per_job_ms is restored's CPU time over the run per fresh
// job: the service's cost of one restoration, with the requests around it
// (status polls, downloads, resubmits, cancels). Counting per fresh job,
// not per pipeline run, keeps a cancel that stopped a pipeline early from
// reading as a cheap restoration.
func runServe(cfg config, tr *tracer) (*run, error) {
	size := serveFull
	if cfg.tiny {
		size = serveTiny
	}
	if cfg.rate > 0 {
		size.rate = cfg.rate
	}
	r := newRun()
	zeroLayers(r)
	runDir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	env := &serveEnv{}
	stopDaemons := func() {
		env.graphd.stop()
		env.restored.stop()
		env.graphd, env.restored = nil, nil
	}
	defer stopDaemons()
	rep := 0
	err = repeatSetup(r, stopDaemons, func() error {
		rep++
		return serveSetup(cfg, size, env, runDir, rep)
	})
	if err != nil {
		return nil, err
	}
	r.detail["graph"] = map[string]int{"n": env.g.N(), "m": env.g.M()}
	r.detail["schedule"] = map[string]any{"events": len(env.sched.Events), "per_op": env.sched.PerOp, "hash": env.sched.Hash, "rate": size.rate}

	conns := runtime.NumCPU()
	l := &loadRun{
		env: env, tr: tr, csr: env.g.CSR(), rc: size.rc,
		graphd:   newTarget(env.graphd.url, conns),
		restored: newTarget(env.restored.url, conns),
		lat:      map[string][]float64{},
		failures: map[string]int{},
		verified: map[uint64]*graph.Graph{},
	}
	before, err := scrapeBoth(l)
	if err != nil {
		return nil, err
	}
	pids := map[string]int{"sgrbench": 0, "graphd": env.graphd.pid(), "restored": env.restored.pid()}
	for _, pid := range pids {
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPUSeconds(env.restored.pid())
	if err != nil {
		return nil, err
	}
	wall, err := l.dispatch(cfg.trace)
	if err != nil {
		return nil, err
	}
	after, err := scrapeBoth(l)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPUSeconds(env.restored.pid())
	if err != nil {
		return nil, err
	}
	rss := 0.0
	perProc := map[string]float64{}
	for name, pid := range pids {
		v, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		perProc[name] = v
		rss += v
	}
	r.detail["peak_rss_mb"] = perProc
	stopDaemons()

	// Outcomes and cross-checks.
	r.attempted = len(env.sched.Events)
	for _, n := range l.failures {
		r.failed += n
	}
	r.problems = append(r.problems, l.problems...)
	delta := func(daemon, name string) float64 {
		a, _ := after[daemon].Value(name)
		b, _ := before[daemon].Value(name)
		return a - b
	}
	if got, want := delta("graphd", "graphd_queries_served"), float64(l.graphdExpected.Load()); got != want {
		r.failf("graphd_queries_served moved by %v, clients counted %v", got, want)
	}
	if got, want := delta("restored", "restored_jobs_submitted")+delta("restored", "restored_jobs_deduped"), float64(l.submitsOK.Load()); got != want {
		r.failf("restored submitted+deduped moved by %v, clients counted %v accepted submissions", got, want)
	}
	for seed := range env.refs {
		if l.verified[seed] == nil {
			r.failf("sample job seed %d was not downloaded and compared", seed)
		}
	}

	// Quality of the service's output: the first scored sample downloads.
	var l1s []float64
	for _, seed := range env.sampleSeeds[:min(size.scored, len(env.sampleSeeds))] {
		if g := l.verified[seed]; g != nil {
			a, err := avgL1(props.Compute(g, quality), env.origProps)
			if err != nil {
				r.failf("sample job seed %d: %v", seed, err)
				continue
			}
			l1s = append(l1s, a)
		}
	}
	r.setE2E("avg_l1", "l1", mean(l1s))
	r.detail["avg_l1_per_sample"] = l1s

	var untracedJobs, tracedJobs []float64
	for _, j := range l.jobs {
		if j.traced {
			tracedJobs = append(tracedJobs, j.latMS)
		} else {
			untracedJobs = append(untracedJobs, j.latMS)
		}
	}
	allJobs := append(append([]float64(nil), untracedJobs...), tracedJobs...)
	if len(l.jobs) > 0 {
		r.setLayer("restored.cpu_per_job_ms", "ms", (cpu1-cpu0)*1e3/float64(len(l.jobs)))
	} else {
		r.failf("no fresh job finished")
	}
	r.setE2E("ok_ratio", "ratio", 1-float64(r.failed)/float64(r.attempted))
	r.setLayer("mem.peak_rss_mb", "MiB", rss)
	r.setLayer("oracle.peak_rss_mb", "MiB", perProc["graphd"])
	r.setLayer("restored.peak_rss_mb", "MiB", perProc["restored"])

	// The load's own validity and the user-facing latencies. A run has
	// about 30 fresh jobs, too few for any tail percentile, so jobs report
	// their median only.
	waits := append(append([]float64(nil), l.graphd.waits...), l.restored.waits...)
	lateP90 := percentile(r, "loadgen late", l.late, 0.9)
	waitP95 := percentile(r, "loadgen slot wait", waits, 0.95)
	queries := l.lat[loadgen.OpNeighbors]
	r.setLayer("loadgen.late_p50_ms", "ms", median(l.late))
	r.setLayer("loadgen.late_p90_ms", "ms", lateP90)
	r.setLayer("loadgen.slot_wait_p95_ms", "ms", waitP95)
	r.setLayer("loadgen.inflight_max", "count", float64(max(l.graphd.maxInflight.Load(), l.restored.maxInflight.Load())))
	r.setLayer("loadgen.jobs", "count", float64(len(allJobs)))
	r.setLayer("loadgen.job_p50_ms", "ms", median(allJobs))
	r.setLayer("loadgen.query_p50_ms", "ms", median(queries))
	r.setLayer("loadgen.query_p90_ms", "ms", percentile(r, "neighbor query", queries, 0.9))
	r.setLayer("loadgen.queries", "count", float64(len(queries)))
	var flags []string
	if lateP90 > lateLimitMS {
		flags = append(flags, fmt.Sprintf("load generator fell behind schedule: late p90 = %.2f ms", lateP90))
	}
	if waitP95 > lateLimitMS {
		flags = append(flags, fmt.Sprintf("requests waited for one of the nproc=%d connection slots: wait p95 = %.2f ms", conns, waitP95))
	}
	lat := map[string]summary{}
	for op, xs := range l.lat {
		lat[op] = summarize(xs)
	}
	r.detail["latency_ms"] = lat
	r.detail["late_ms"] = summarize(l.late)
	r.detail["slot_wait_ms"] = summarize(waits)
	r.detail["failures"] = l.failures
	r.detail["flags"] = flags
	r.detail["wall_s"] = wall
	for _, f := range flags {
		fmt.Printf("# FLAG: %s\n", f)
	}

	// Server-side layers.
	hmean := func(daemon, name string, scale float64) float64 {
		a, okA := after[daemon].Histogram(name)
		b, okB := before[daemon].Histogram(name)
		if !okA || !okB || a.Count == b.Count {
			return 0
		}
		return (a.Sum - b.Sum) / (a.Count - b.Count) * scale
	}
	r.setLayer("oracle.service_mean_us", "us", hmean("graphd", "graphd_request_usec", 1))
	r.setLayer("oracle.queries_served", "count", delta("graphd", "graphd_queries_served"))
	r.setLayer("oracle.rate_limited", "count", delta("graphd", "graphd_rate_limited"))
	var queue, phase []float64
	var busy float64
	var perOp []map[string]float64
	for _, j := range l.jobs {
		queue = append(queue, float64(j.queueUS)/1e3)
		phase = append(phase, float64(j.phaseUS)/1e3)
		busy += float64(j.phaseUS) / 1e6
		if j.traced {
			perOp = append(perOp, j.phases)
		}
	}
	r.setLayer("restored.queue_p50_ms", "ms", median(queue))
	r.setLayer("restored.run_p50_ms", "ms", median(phase))
	r.setLayer("restored.pipeline_mean_ms", "ms", hmean("restored", "restored_pipeline_usec", 1e-3))
	r.setLayer("restored.encode_mean_ms", "ms", hmean("restored", "restored_encode_usec", 1e-3))
	r.setLayer("restored.request_mean_us", "us", hmean("restored", "restored_request_usec", 1))
	r.setLayer("restored.busy_ratio", "ratio", busy/wall)
	if n := l.resubmitsOK.Load(); n > 0 {
		r.setLayer("restored.cache_hit_ratio", "ratio", float64(l.resubmitsDone.Load())/float64(n))
	}
	r.setLayer("restored.pipeline_runs", "count", delta("restored", "restored_pipeline_runs"))
	r.setLayer("restored.wal_records", "count", delta("restored", "restored_wal_records"))
	if pipe := delta("restored", "restored_pipeline_usec_total"); pipe > 0 {
		r.setLayer("core.restore_cpu_per_wall", "ratio", (cpu1-cpu0)/(pipe/1e6))
	}
	if cfg.trace {
		layerFromPhases(r, perOp)
		rewireCounts(r, env.refStats)
		propsLayer(r, tr, env.g, quality)
		overhead(r, tr, tracedJobs, untracedJobs)
	}
	return r, nil
}

// serveSetup builds one repetition's inputs and boots both daemons.
func serveSetup(cfg config, size serveSize, env *serveEnv, runDir string, rep int) error {
	if err := serveInputs(cfg, size, env); err != nil {
		return err
	}
	return bootDaemons(cfg, size, env, runDir, rep)
}

// serveInputs builds the graph and its properties, the crawl every job
// restores, the request schedule, and the offline reference restores of
// the sample jobs.
func serveInputs(cfg config, size serveSize, env *serveEnv) error {
	env.g = buildGraph(size.scale)
	env.origProps = props.Compute(env.g, quality)
	c, err := fixedCrawl(env.g, size.fraction)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		return err
	}
	env.crawlJSON = buf.Bytes()
	// Offline restores read the crawl as the daemon does: from its JSON.
	crawl, err := sampling.ReadCrawlJSON(bytes.NewReader(env.crawlJSON))
	if err != nil {
		return err
	}
	env.sched, err = loadgen.GenSchedule(loadgen.Config{
		GraphdURL: "graphd", RestoredURL: "restored",
		Seed:      seedsOf(cfg.seed, 2, 1)[0],
		Rate:      size.rate,
		Duration:  time.Duration(cfg.seconds * float64(time.Second)),
		Nodes:     env.g.N(),
		BatchSize: batchSize,
		CrawlJSON: env.crawlJSON,
		RC:        size.rc,
	})
	if err != nil {
		return err
	}
	env.refs = map[uint64][]byte{}
	env.refStats, env.sampleSeeds = nil, nil
	for _, ev := range env.sched.Events {
		if ev.Op != loadgen.OpJob || len(env.refs) == size.sample {
			continue
		}
		res, err := core.Restore(crawl, core.Options{RC: size.rc, RewireWorkers: 1, Rand: core.PipelineRand(ev.JobSeed)})
		if err != nil {
			return fmt.Errorf("offline reference restore: %w", err)
		}
		b, err := graph.AppendBinary(nil, res.Graph)
		if err != nil {
			return err
		}
		env.sampleSeeds = append(env.sampleSeeds, ev.JobSeed)
		env.refs[ev.JobSeed] = b
		env.refStats = append(env.refStats, res.RewireStats)
	}
	return nil
}

// bootDaemons starts graphd and restored and waits until both answer
// healthy and graphd serves the benchmark's graph.
func bootDaemons(cfg config, size serveSize, env *serveEnv, runDir string, rep int) error {
	var err error

	bin := func(name string) string { return filepath.Join(cfg.binDir, name) }
	logDir := filepath.Join(runDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	env.graphd, err = startDaemon("graphd", bin("graphd"), runDir, filepath.Join(logDir, fmt.Sprintf("graphd-%d.log", rep)),
		"-dataset", "anybeat", "-scale", strconv.FormatFloat(size.scale, 'g', -1, 64), "-seed", strconv.Itoa(datasetSeed))
	if err != nil {
		return err
	}
	cacheDir := filepath.Join(runDir, fmt.Sprintf("cache-%d", rep))
	env.restored, err = startDaemon("restored", bin("restored"), runDir, filepath.Join(logDir, fmt.Sprintf("restored-%d.log", rep)),
		"-workers", "1", "-rewire-workers", "1", "-cache-dir", cacheDir)
	if err != nil {
		return err
	}
	// graphd must serve the benchmark's graph.
	resp, err := http.Get(env.graphd.url + "/v1/meta")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var meta oracle.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return fmt.Errorf("graphd meta: %w", err)
	}
	if meta.Nodes != env.g.N() || meta.MaxBatch < batchSize {
		return fmt.Errorf("graphd serves n=%d (max batch %d), benchmark graph has n=%d", meta.Nodes, meta.MaxBatch, env.g.N())
	}
	env.pageSize = meta.PageSize
	return nil
}

func scrapeBoth(l *loadRun) (map[string]*obs.Scrape, error) {
	out := map[string]*obs.Scrape{}
	for name, t := range map[string]*target{"graphd": l.graphd, "restored": l.restored} {
		status, body, err := t.do(http.MethodGet, "/v1/metrics", nil, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("scraping %s: status %d, %v", name, status, err)
		}
		s, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("parsing %s metrics: %w", name, err)
		}
		out[name] = s
	}
	return out, nil
}

// dispatch fires every scheduled event at its due time, each in its own
// goroutine (arrivals never wait for completions), waits for all of them
// and returns the wall time in seconds. With traced set, every other
// event is traced.
func (l *loadRun) dispatch(traced bool) (float64, error) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range l.env.sched.Events {
		if err := interrupted(); err != nil {
			wg.Wait()
			return 0, err
		}
		ev := &l.env.sched.Events[i]
		due := start.Add(time.Duration(ev.AtUS) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, ev *loadgen.Event, tracedOp bool) {
			defer wg.Done()
			l.fire(i, ev, due, tracedOp)
		}(i, ev, traced && i%2 == 0)
	}
	wg.Wait()
	return since(start), nil
}

// fire runs one event and records its latency from due time, or its
// failure.
func (l *loadRun) fire(opID int, ev *loadgen.Event, due time.Time, traced bool) {
	root := -1
	if traced {
		root = l.tr.start("op."+ev.Op, -1, opID)
		defer l.tr.end(root)
	}
	span := func(name string) func() {
		if root < 0 {
			return func() {}
		}
		id := l.tr.start(name, root, opID)
		return func() { l.tr.end(id) }
	}
	switch ev.Op {
	case loadgen.OpNeighbors:
		end := span("graphd.neighbors")
		status, body, err := l.graphd.do(http.MethodGet, fmt.Sprintf("/v1/nodes/%d/neighbors", ev.Nodes[0]), nil, l.sent(due))
		end()
		if reason := statusReason(status, err); reason != "" {
			l.fail(ev.Op, reason)
			return
		}
		var page oracle.NeighborsPage
		if json.Unmarshal(body, &page) != nil || !l.pageMatches(page.ID, page.Degree, page.Neighbors, ev.Nodes[0]) {
			l.fail(ev.Op, "invalid")
			l.problem("neighbor page of node %d differs from the graph", ev.Nodes[0])
			return
		}
		l.graphdExpected.Add(1)
		l.record(ev.Op, due)
	case loadgen.OpBatch:
		ids := make([]string, len(ev.Nodes))
		for i, u := range ev.Nodes {
			ids[i] = strconv.Itoa(u)
		}
		end := span("graphd.batch")
		status, body, err := l.graphd.do(http.MethodGet, "/v1/neighbors?ids="+strings.Join(ids, ","), nil, l.sent(due))
		end()
		if reason := statusReason(status, err); reason != "" {
			l.fail(ev.Op, reason)
			return
		}
		var resp oracle.BatchNeighborsResponse
		if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(ev.Nodes) {
			l.fail(ev.Op, "invalid")
			return
		}
		for i, it := range resp.Results {
			if it.Error != "" || !l.pageMatches(it.ID, it.Degree, it.Neighbors, ev.Nodes[i]) {
				l.fail(ev.Op, "invalid")
				l.problem("batch item for node %d differs from the graph (%s)", ev.Nodes[i], it.Error)
				return
			}
		}
		l.graphdExpected.Add(int64(len(resp.Results)))
		l.record(ev.Op, due)
	case loadgen.OpJob:
		l.fireJob(opID, root, ev, due, span)
	case loadgen.OpResubmit:
		end := span("restored.submit")
		st, reason := l.submit(ev.JobSeed, l.sent(due))
		end()
		if reason != "" {
			l.fail(ev.Op, reason)
			return
		}
		if st.State == restored.StateFailed {
			l.fail(ev.Op, "failed_state")
			return
		}
		l.resubmitsOK.Add(1)
		if st.State == restored.StateDone {
			l.resubmitsDone.Add(1)
		}
		l.record(ev.Op, due)
	case loadgen.OpCancel:
		end := span("restored.submit")
		st, reason := l.submit(ev.JobSeed, l.sent(due))
		end()
		if reason != "" {
			l.fail(ev.Op, reason)
			return
		}
		end = span("restored.cancel")
		status, _, err := l.restored.do(http.MethodDelete, "/v1/jobs/"+st.ID, nil, nil)
		end()
		// 409: the job finished before the DELETE arrived; not an error.
		if err != nil || (status != http.StatusOK && status != http.StatusConflict) {
			l.fail(ev.Op, statusReason(status, err))
			return
		}
		l.record(ev.Op, due)
	}
}

// pageMatches checks a served neighbor page against the benchmark's own
// copy of the graph.
func (l *loadRun) pageMatches(id, degree int, nbrs []int, u int) bool {
	want := l.csr.Endpoints(u)
	if id != u || degree != len(want) {
		return false
	}
	if len(want) > l.env.pageSize {
		want = want[:l.env.pageSize]
	}
	if len(nbrs) != len(want) {
		return false
	}
	for i, v := range want {
		if nbrs[i] != int(v) {
			return false
		}
	}
	return true
}

// statusReason classifies a failed request ("" for a 2xx answer).
func statusReason(status int, err error) string {
	switch {
	case err != nil:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return "timeout"
		}
		return "transport"
	case status == http.StatusTooManyRequests:
		return "refused_429"
	case status < 200 || status > 299:
		return "http_" + strconv.Itoa(status)
	}
	return ""
}

// submit POSTs the job spec for seed; onSlot is passed to target.do.
func (l *loadRun) submit(seed uint64, onSlot func()) (*restored.JobStatus, string) {
	body, err := json.Marshal(&restored.JobSpec{Seed: seed, RC: l.rc, Crawl: l.env.crawlJSON})
	if err != nil {
		return nil, "marshal"
	}
	status, resp, err := l.restored.do(http.MethodPost, "/v1/jobs", body, onSlot)
	if reason := statusReason(status, err); reason != "" {
		return nil, reason
	}
	var st restored.JobStatus
	if json.Unmarshal(resp, &st) != nil || st.ID == "" {
		return nil, "invalid"
	}
	l.submitsOK.Add(1)
	return &st, ""
}

// fireJob runs a fresh job's lifecycle: submit, poll to a terminal state,
// download and decode the graph; sample jobs are compared byte-for-byte
// with their offline restore.
func (l *loadRun) fireJob(opID, root int, ev *loadgen.Event, due time.Time, span func(string) func()) {
	end := span("restored.submit")
	st, reason := l.submit(ev.JobSeed, l.sent(due))
	end()
	if reason != "" {
		l.fail(ev.Op, reason)
		return
	}
	submitted := time.Now()
	for st.State != restored.StateDone {
		if st.State == restored.StateFailed || st.State == restored.StateCancelled {
			l.fail(ev.Op, "state_"+st.State)
			return
		}
		if since(submitted) > jobDeadline.Seconds() {
			l.fail(ev.Op, "unfinished")
			return
		}
		time.Sleep(pollInterval)
		end := span("restored.status")
		status, body, err := l.restored.do(http.MethodGet, "/v1/jobs/"+st.ID, nil, nil)
		end()
		if reason := statusReason(status, err); reason != "" {
			l.fail(ev.Op, reason)
			return
		}
		id := st.ID
		st = &restored.JobStatus{}
		if json.Unmarshal(body, st) != nil || st.ID != id {
			l.fail(ev.Op, "invalid")
			return
		}
	}
	end = span("restored.graph")
	status, body, err := l.restored.do(http.MethodGet, "/v1/jobs/"+st.ID+"/graph", nil, nil)
	end()
	if reason := statusReason(status, err); reason != "" {
		l.fail(ev.Op, reason)
		return
	}
	latMS := since(due) * 1e3
	g, err := graph.DecodeBinary(body)
	if err != nil {
		l.fail(ev.Op, "invalid")
		l.problem("job %s: download does not decode: %v", st.ID, err)
		return
	}
	job := freshJob{traced: root >= 0, latMS: latMS, queueUS: st.QueueUS, phaseUS: st.PhaseUS}
	if root >= 0 {
		job.phases = l.jobTrace(opID, root, submitted, st.ID, span)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ref, ok := l.env.refs[ev.JobSeed]; ok {
		if !bytes.Equal(ref, body) {
			l.problems = append(l.problems, fmt.Sprintf("job seed %d: download differs from the offline core.Restore", ev.JobSeed))
			l.failures[ev.Op+":mismatch"]++
			return
		}
		l.verified[ev.JobSeed] = g
	}
	l.jobs = append(l.jobs, job)
	l.lat[ev.Op] = append(l.lat[ev.Op], latMS)
}

// jobTrace fetches a finished job's pipeline trace, adopts its spans under
// the op's span (offset to the submission instant) and returns its
// per-phase totals.
func (l *loadRun) jobTrace(opID, root int, submitted time.Time, id string, span func(string) func()) map[string]float64 {
	end := span("restored.trace")
	status, body, err := l.restored.do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil, nil)
	end()
	var tj obs.TraceJSON
	if statusReason(status, err) != "" || json.Unmarshal(body, &tj) != nil {
		l.problem("job %s: trace not served (status %d, %v)", id, status, err)
		return map[string]float64{}
	}
	l.tr.adoptSpans(root, opID, submitted.Sub(l.tr.t0).Microseconds(), tj.Spans)
	return sumSpans(tj.Spans)
}
