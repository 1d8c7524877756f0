package restored

import (
	"bytes"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sgr/internal/core"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/oracle"
	"sgr/internal/sampling"
)

// newTestService builds a service sized for tests.
func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// waitDone blocks until the job finishes, failing the test on timeout or
// job failure.
func waitDone(t testing.TB, j *Job) *Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s timed out", j.ID)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job %s failed: %v", j.ID, err)
	}
	return res
}

// offlineRestore replicates cmd/restore's pipeline on a crawl: the
// reference every service result is compared against, byte for byte.
func offlineRestore(t testing.TB, c *sampling.Crawl, rc float64, seed uint64) (*core.Result, []byte) {
	t.Helper()
	res, err := core.Restore(c, core.Options{RC: rc, Rand: core.PipelineRand(seed)})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := graph.AppendBinary(nil, res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return res, bin
}

// TestJobByteIdenticalToOfflineRestore is the headline guarantee: a job
// submitted to the service yields a graph byte-identical — in the binary
// codec AND as an edge list — to cmd/restore run offline on the same crawl
// and seed.
func TestJobByteIdenticalToOfflineRestore(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	offline, offlineBin := offlineRestore(t, c, 5, 3)

	svc := newTestService(t, Config{})
	job, existing, err := svc.Submit(&JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("first submission reported existing")
	}
	res := waitDone(t, job)

	if !bytes.Equal(res.GraphBin, offlineBin) {
		t.Fatal("service graph binary differs from offline restore")
	}
	var offlineEdges, serviceEdges bytes.Buffer
	if err := graph.WriteEdgeList(&offlineEdges, offline.Graph); err != nil {
		t.Fatal(err)
	}
	sg, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(&serviceEdges, sg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offlineEdges.Bytes(), serviceEdges.Bytes()) {
		t.Fatal("service edge list differs from offline restore")
	}
	if res.Meta.Nodes != offline.Graph.N() || res.Meta.Edges != offline.Graph.M() ||
		res.Meta.NumAdded != offline.NumAdded {
		t.Fatalf("result meta %+v does not describe the offline graph", res.Meta)
	}
	if svc.PipelineRuns() != 1 {
		t.Fatalf("pipeline runs = %d, want 1", svc.PipelineRuns())
	}
}

// TestResubmitServedFromCache: an identical resubmission runs no second
// pipeline — first via the job table (the submission IS the job), then via
// the result cache when the job table forgets — and the cached answer is
// at least 10x faster than the original run, fastest sample against
// fastest sample.
func TestResubmitServedFromCache(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.2)
	spec := &JobSpec{Seed: 3, RC: 50, Crawl: crawlJSONBytes(t, c)}
	svc := newTestService(t, Config{})

	t0 := time.Now()
	job, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, job)
	coldLatency := time.Since(t0)

	// Path 1: the job table answers — the resubmission is the done job.
	t1 := time.Now()
	again, existing, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, again)
	dedupLatency := time.Since(t1)
	if !existing || again != job {
		t.Fatal("resubmission did not land on the existing job")
	}
	if !bytes.Equal(res.GraphBin, first.GraphBin) {
		t.Fatal("resubmission answer differs")
	}

	// Path 2: forget the job so the resubmission re-enters the worker and
	// must be answered by the content-addressed result cache.
	svc.forget(job.ID)
	t2 := time.Now()
	third, existing, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("forgotten job still in the table")
	}
	res3 := waitDone(t, third)
	cacheLatency := time.Since(t2)
	if !third.Status().Cached {
		t.Fatal("re-run job was not served from the result cache")
	}
	if res3 != first {
		t.Fatal("cache returned a different Result instance")
	}

	if got := svc.PipelineRuns(); got != 1 {
		t.Fatalf("pipeline runs = %d after three submissions, want 1", got)
	}
	if got := svc.CacheHits(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	// One wall-clock sample per path is at the mercy of the scheduler: on
	// a loaded machine a single stall of a few hundred microseconds
	// outweighs the ~0.1 ms a served answer costs. Each path is therefore
	// judged by its fastest of timingSamples runs, interleaved so a burst
	// of load slows all three alike: further cold runs on fresh seeds (new
	// content addresses) and further resubmissions of spec, taken after
	// the counter checks above, which they move.
	const timingSamples = 5
	for i := 1; i < timingSamples; i++ {
		cold := *spec
		cold.Seed = spec.Seed + uint64(i)
		t0 := time.Now()
		j, existing, err := svc.Submit(&cold)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		coldLatency = min(coldLatency, time.Since(t0))
		if existing || j.Status().Cached {
			t.Fatalf("seed %d was not a cold run", cold.Seed)
		}

		t1 := time.Now()
		j, existing, err = svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		dedupLatency = min(dedupLatency, time.Since(t1))
		if !existing {
			t.Fatal("resubmission did not land on the existing job")
		}

		svc.forget(job.ID)
		t2 := time.Now()
		j, _, err = svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		cacheLatency = min(cacheLatency, time.Since(t2))
		if !j.Status().Cached {
			t.Fatal("re-run job was not served from the result cache")
		}
	}
	if got := svc.PipelineRuns(); got != timingSamples {
		t.Fatalf("pipeline runs = %d after %d distinct seeds, want %d", got, timingSamples, timingSamples)
	}
	for name, served := range map[string]time.Duration{"dedup": dedupLatency, "cache": cacheLatency} {
		if served*10 > coldLatency {
			t.Errorf("%s path took %v, not 10x faster than the %v cold run", name, served, coldLatency)
		}
	}
}

// TestConcurrentIdenticalSubmissionsSingleflight: 8 concurrent identical
// submissions run the pipeline exactly once. Run under -race in CI.
func TestConcurrentIdenticalSubmissionsSingleflight(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	raw := crawlJSONBytes(t, c)
	svc := newTestService(t, Config{Workers: 4})

	const crawlers = 8
	jobs := make([]*Job, crawlers)
	var wg sync.WaitGroup
	for i := 0; i < crawlers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, _, err := svc.Submit(&JobSpec{Seed: 3, RC: 5, Crawl: raw})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()
	var first *Result
	for i, j := range jobs {
		if j == nil {
			t.Fatal("a submission failed")
		}
		if j != jobs[0] {
			t.Fatalf("submission %d produced a distinct job", i)
		}
		res := waitDone(t, j)
		if first == nil {
			first = res
		} else if res != first {
			t.Fatalf("submission %d saw a different result", i)
		}
	}
	if got := svc.PipelineRuns(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical submissions, want exactly 1", got, crawlers)
	}
	if got := svc.Registry().Snapshot(); len(got) == 0 {
		t.Fatal("metrics unavailable")
	}
}

// TestGraphdSourceSharesCacheWithInline: a server-side crawl job produces
// the same crawl, pipeline, and cache line as the equivalent local crawl
// submitted inline — so the second of the two never runs the pipeline.
func TestGraphdSourceSharesCacheWithInline(t *testing.T) {
	g, c := testGraphAndCrawl(t, 7, 0.12)
	ts := httptest.NewServer(oracle.NewServer(g, oracle.ServerConfig{}).Handler())
	defer ts.Close()

	svc := newTestService(t, Config{})
	remote, _, err := svc.Submit(&JobSpec{
		Seed:   7,
		RC:     5,
		Graphd: &GraphdSource{URL: ts.URL, Fraction: 0.12},
	})
	if err != nil {
		t.Fatal(err)
	}
	remoteRes := waitDone(t, remote)
	if svc.PipelineRuns() != 1 {
		t.Fatalf("pipeline runs = %d", svc.PipelineRuns())
	}

	// The offline reference: the same seeded crawl of the same graph,
	// restored locally.
	_, offlineBin := offlineRestore(t, c, 5, 7)
	if !bytes.Equal(remoteRes.GraphBin, offlineBin) {
		t.Fatal("graphd-crawled job differs from offline crawl+restore at the same seed")
	}

	// An inline submission of the identical crawl is a different job id
	// (request-keyed vs content-keyed) but the same cache line: no second
	// pipeline run.
	inline, existing, err := svc.Submit(&JobSpec{Seed: 7, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("inline submission unexpectedly matched the graphd job id")
	}
	inlineRes := waitDone(t, inline)
	if !inline.Status().Cached {
		t.Fatal("inline twin was not served from the result cache")
	}
	if !bytes.Equal(inlineRes.GraphBin, remoteRes.GraphBin) {
		t.Fatal("inline twin answer differs")
	}
	if svc.PipelineRuns() != 1 || svc.CacheHits() != 1 {
		t.Fatalf("pipeline runs = %d cache hits = %d, want 1 and 1",
			svc.PipelineRuns(), svc.CacheHits())
	}
}

// TestGraphdSourceFailure: an unreachable graphd fails the job with the
// transport error, not a hung or bogus result, and marks the job trace's
// crawl span with that error.
func TestGraphdSourceFailure(t *testing.T) {
	svc := newTestService(t, Config{})
	job, _, err := svc.Submit(&JobSpec{
		Seed:   1,
		Graphd: &GraphdSource{URL: "http://127.0.0.1:1", Fraction: 0.1, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		t.Fatal("failed crawl never finished the job")
	}
	if _, err := job.Result(); err == nil {
		t.Fatal("job against a dead graphd succeeded")
	}
	if st := job.Status(); st.State != StateFailed || st.Error == "" {
		t.Fatalf("status = %+v, want failed with an error", st)
	}
	var crawl *obs.Span
	for _, sp := range job.Trace().Spans() {
		if sp.Name == "crawl" {
			crawl = &sp
		}
	}
	if crawl == nil || crawl.Error == "" {
		t.Fatalf("crawl span = %+v, want one marked with the crawl error", crawl)
	}
}

// TestFailedJobRetries: a failed job does not poison its content address —
// an identical resubmission replaces it with a fresh attempt, which
// succeeds once the transient cause (here: the graphd being down) passes.
func TestFailedJobRetries(t *testing.T) {
	g, _ := testGraphAndCrawl(t, 7, 0.12)
	// Reserve a port, then shut it so the first attempt gets connection
	// refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	svc := newTestService(t, Config{})
	spec := &JobSpec{Seed: 7, RC: 5, Graphd: &GraphdSource{URL: "http://" + addr, Fraction: 0.12, Retries: 1}}
	job, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if !job.retryable() {
		t.Fatal("job against a dead port did not fail")
	}

	// The graphd comes back on the same address; the identical submission
	// must be a fresh job, not the cached failure.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ts := httptest.NewUnstartedServer(oracle.NewServer(g, oracle.ServerConfig{}).Handler())
	ts.Listener.Close()
	ts.Listener = ln2
	ts.Start()
	defer ts.Close()

	retry, existing, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if existing || retry == job {
		t.Fatal("resubmission dedumped onto the failed job instead of retrying")
	}
	if retry.ID != job.ID {
		t.Fatal("retry changed the job identity")
	}
	res := waitDone(t, retry)
	if found, ok := svc.Job(job.ID); !ok || found != retry {
		t.Fatal("job table does not point at the successful retry")
	}
	if len(res.GraphBin) == 0 {
		t.Fatal("retry produced no graph")
	}
}

// TestCacheDirPersistence: a restarted service answers an old submission
// from the on-disk cache without recomputing it.
func TestCacheDirPersistence(t *testing.T) {
	dir := t.TempDir()
	_, c := testGraphAndCrawl(t, 3, 0.15)
	spec := &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)}

	svc1 := newTestService(t, Config{CacheDir: dir})
	job1, _, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitDone(t, job1)
	svc1.Close()

	svc2 := newTestService(t, Config{CacheDir: dir})
	job2, existing, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("fresh service knew the job before running it")
	}
	res2 := waitDone(t, job2)
	if !job2.Status().Cached {
		t.Fatal("restarted service recomputed instead of reading the disk cache")
	}
	if svc2.PipelineRuns() != 0 || svc2.CacheHits() != 1 {
		t.Fatalf("restart: pipeline runs = %d cache hits = %d, want 0 and 1",
			svc2.PipelineRuns(), svc2.CacheHits())
	}
	if !bytes.Equal(res1.GraphBin, res2.GraphBin) {
		t.Fatal("disk cache returned different bytes")
	}
	if res1.Meta != res2.Meta {
		t.Fatalf("disk cache meta %+v != original %+v", res2.Meta, res1.Meta)
	}
}

// TestQueueBackpressureAndShutdown: a full queue rejects with ErrQueueFull
// without registering a ghost job; a closed service rejects with
// ErrClosed.
func TestQueueBackpressureAndShutdown(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.1)
	raw := crawlJSONBytes(t, c)

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	svc, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.testBeforeRun = func(*Job) {
		started <- struct{}{}
		<-gate
	}

	// Job A occupies the worker...
	a, _, err := svc.Submit(&JobSpec{Seed: 1, RC: 5, Crawl: raw})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...job B fills the queue...
	if _, _, err := svc.Submit(&JobSpec{Seed: 2, RC: 5, Crawl: raw}); err != nil {
		t.Fatal(err)
	}
	// ...and job C bounces.
	if _, _, err := svc.Submit(&JobSpec{Seed: 3, RC: 5, Crawl: raw}); err != ErrQueueFull {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	// The bounced job left no trace, so a retry after drain succeeds.
	if _, ok := svc.Job(mustKey(t, &JobSpec{Seed: 3, RC: 5, Crawl: raw})); ok {
		t.Fatal("rejected submission registered a job")
	}

	close(gate)
	waitDone(t, a)
	svc.Close()
	if _, _, err := svc.Submit(&JobSpec{Seed: 4, RC: 5, Crawl: raw}); err != ErrClosed {
		t.Fatalf("post-close submission: err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	svc.Close()
}

// TestCountersCurrentAtWakeUp reads the outcome counters straight after
// each job's done channel closes, for all four terminal outcomes: a fresh
// run, a cache hit, a failure and a cancellation settled by the worker.
// Every counter a terminal transition bumps must already show the job
// when a waiter wakes.
func TestCountersCurrentAtWakeUp(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.1)
	raw := crawlJSONBytes(t, c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	const cancelSeed = 1 << 20
	svc := newTestService(t, Config{Workers: 1})
	svc.testBeforeRun = func(j *Job) {
		if j.spec.seed >= cancelSeed {
			j.cancel(errJobCancelled) // the worker's first poll settles it
		}
	}
	await := func(spec *JobSpec) *Job {
		t.Helper()
		job, _, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-job.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s timed out", shortKey(job.ID))
		}
		return job
	}
	type tally struct{ completed, cacheHits, failed, cancelled int64 }
	read := func() tally {
		return tally{svc.completed.Value(), svc.cacheHits.Value(), svc.failed.Value(), svc.cancelled.Value()}
	}
	for i := uint64(1); i <= 20; i++ {
		want := read()
		fresh := await(&JobSpec{Seed: i, RC: 1, Crawl: raw})
		want.completed++
		if got := read(); got != want {
			t.Fatalf("round %d done: counters %+v, want %+v", i, got, want)
		}
		svc.forget(fresh.ID)
		if !await(&JobSpec{Seed: i, RC: 1, Crawl: raw}).Status().Cached {
			t.Fatalf("round %d: resubmission not served from cache", i)
		}
		want.completed++
		want.cacheHits++
		if got := read(); got != want {
			t.Fatalf("round %d cached: counters %+v, want %+v", i, got, want)
		}
		await(&JobSpec{Seed: i, RC: 1, Graphd: &GraphdSource{URL: dead, Fraction: 0.1, Retries: 1}})
		want.failed++
		if got := read(); got != want {
			t.Fatalf("round %d failed: counters %+v, want %+v", i, got, want)
		}
		await(&JobSpec{Seed: cancelSeed + i, RC: 1, Crawl: raw})
		want.cancelled++
		if got := read(); got != want {
			t.Fatalf("round %d cancelled: counters %+v, want %+v", i, got, want)
		}
	}
}
