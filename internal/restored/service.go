package restored

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sgr/internal/core"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/oracle"
	"sgr/internal/parallel"
	"sgr/internal/sampling"
)

// Config tunes a Service. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the pipeline worker-pool width (default
	// parallel.DefaultWorkers — the same bound the evaluation engine
	// uses). Each worker runs one job at a time, start to finish.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). A full queue rejects submissions with ErrQueueFull —
	// backpressure, not unbounded memory.
	QueueDepth int
	// CacheDir, when set, persists the content-addressed result cache on
	// disk so a restarted daemon answers old submissions without
	// recomputing them — and makes accepted jobs durable: submissions are
	// logged to a write-ahead journal (jobs.wal) in the same directory
	// before they become runnable, and a restarted daemon replays
	// unfinished ones, so a crash mid-pipeline loses no accepted work.
	CacheDir string
	// PropsWorkers bounds the all-sources path pass (Brandes) of /props
	// property computation, the only loop of props.Compute that fans out
	// (default 1: the daemon's parallelism unit is the job).
	// It bounds CPU only: the /props bytes are identical at any value.
	PropsWorkers int
	// Logf reports job lifecycle events (log.Printf-shaped; default
	// silent).
	Logf func(format string, args ...any)
}

// Submission errors.
var (
	// ErrQueueFull rejects a submission when the bounded job queue is at
	// capacity.
	ErrQueueFull = errors.New("restored: job queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("restored: service shutting down")
	// ErrUnknownJob reports a Cancel of an id the job table has never
	// seen.
	ErrUnknownJob = errors.New("restored: unknown job")
	// ErrNotCancellable reports a Cancel of a job already in a terminal
	// state — there is nothing left to stop.
	ErrNotCancellable = errors.New("restored: job already finished")
)

// Cancellation causes. These flow through the job context into the
// pipeline's abort error, so run can tell an operator cancel and an
// expired deadline apart from a genuine pipeline failure.
var (
	errJobCancelled = errors.New("restored: job cancelled")
	errJobDeadline  = errors.New("restored: job deadline exceeded")
)

// Service is the restoration job engine: a bounded queue feeding a fixed
// worker pool, a singleflighting job table keyed by content address, and
// the result cache. It is safe for concurrent use.
//
// Retention: the job table keeps finished jobs so status polling and
// duplicate submissions keep answering, but a finished job releases its
// submission payload and shrinks to a status plus a pointer into the
// result cache; failed jobs are replaced (and so retried) by the next
// identical submission. The result cache is content-addressed storage and
// unbounded by design — size it with the disk tier (CacheDir), which is
// also what survives restarts.
type Service struct {
	cfg   Config
	cache *Cache
	queue chan *Job
	// wal is the accepted-job journal (nil without CacheDir). Appends
	// happen before a job becomes visible to workers, so a terminal
	// record can never precede its accepted record.
	wal *walJournal

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	wg sync.WaitGroup

	// Metrics. Everything observable about the service lives in one
	// obs.Registry: counters and the running gauge are updated on the job
	// path, live quantities (queue depth, table size, configuration) are
	// GaugeFuncs read at scrape time, and the latency histograms feed the
	// /v1/metrics quantile readouts. All of it is wall-clock/throughput
	// telemetry — none of it feeds a job key or a result byte.
	reg          *obs.Registry
	submitted    *obs.Counter // jobs accepted (new job ids)
	deduped      *obs.Counter // submissions answered by an existing job
	completed    *obs.Counter // jobs finished successfully
	failed       *obs.Counter // jobs finished with an error
	cancelled    *obs.Counter // jobs cancelled (DELETE or deadline)
	replayed     *obs.Counter // jobs re-enqueued from the WAL at startup
	walRecords   *obs.Counter // WAL records appended (accepted + terminal)
	pipelineRuns *obs.Counter // full pipeline executions (cache misses)
	cacheHits    *obs.Counter // jobs answered from the result cache
	remoteCrawls *obs.Counter // server-side graphd crawls performed
	running      *obs.Gauge   // jobs currently executing

	// Cumulative pipeline-phase wall clock (microseconds) over every
	// pipeline execution (cache hits excluded — they run no phases).
	// rewire ⊂ pipeline; the difference is phases 1-3 plus estimation.
	// These predate the histograms below and stay registered under their
	// original names so existing scrapes keep parsing.
	pipelineUS *obs.Counter
	rewireUS   *obs.Counter

	queueUsec    *obs.Histogram // enqueue -> worker pickup
	pipelineUsec *obs.Histogram // per-run pipeline wall clock
	rewireUsec   *obs.Histogram // per-run phase-4 wall clock
	encodeUsec   *obs.Histogram // per-run binary encode wall clock
	requestUsec  *obs.Histogram // per-request service time on job endpoints

	// testBeforeRun, when set (tests only), runs at the top of every
	// worker execution — a seam for stalling workers deterministically.
	testBeforeRun func(*Job)
}

// Job is one submission's lifecycle. Its identity is the content address
// of the submission, so "the same job" means "the same work".
type Job struct {
	// ID is the job key: hex SHA-256 of the canonicalized submission.
	ID string

	spec *jobSpec
	done chan struct{}

	// trace is the job's pipeline timeline: a queue span opened at
	// submission, then crawl/cache/pipeline-phase/encode spans recorded by
	// the worker. Wall clock only — the job key and result bytes are
	// computed before and without it.
	trace    *obs.Trace
	endQueue func()

	// ctx carries the job's cancellation and deadline. Cooperative: the
	// worker polls it between pipeline phases and rewiring rounds, so
	// cancellation can only abort a job, never perturb the bytes of one
	// that completes. Wall-clock machinery, outside the content address.
	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopTimer context.CancelFunc // non-nil when TimeoutMS armed a deadline

	mu       sync.Mutex
	picked   bool // a worker has taken this job off the queue
	state    string
	phase    string
	err      error
	cached   bool
	res      *Result
	enqueued time.Time
	started  time.Time
	finished time.Time
	queueUS  int64
}

// New starts a Service.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.DefaultWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PropsWorkers <= 0 {
		cfg.PropsWorkers = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		cache: cache,
		jobs:  make(map[string]*Job),
		reg:   obs.NewRegistry(),
	}
	s.submitted = s.reg.Counter("restored_jobs_submitted", "jobs accepted (new job ids)")
	s.deduped = s.reg.Counter("restored_jobs_deduped", "submissions answered by an existing job")
	s.completed = s.reg.Counter("restored_jobs_completed", "jobs finished successfully")
	s.failed = s.reg.Counter("restored_jobs_failed", "jobs finished with an error")
	s.cancelled = s.reg.Counter("restored_jobs_cancelled", "jobs cancelled (DELETE or deadline)")
	s.replayed = s.reg.Counter("restored_jobs_replayed", "jobs re-enqueued from the WAL at startup")
	s.walRecords = s.reg.Counter("restored_wal_records", "job WAL records appended (accepted + terminal)")
	s.pipelineRuns = s.reg.Counter("restored_pipeline_runs", "full pipeline executions (cache misses)")
	s.cacheHits = s.reg.Counter("restored_cache_hits", "jobs answered from the result cache")
	s.remoteCrawls = s.reg.Counter("restored_remote_crawls", "server-side graphd crawls performed")
	s.running = s.reg.Gauge("restored_jobs_running", "jobs currently executing")
	s.pipelineUS = s.reg.Counter("restored_pipeline_usec_total", "cumulative pipeline wall clock, microseconds")
	s.rewireUS = s.reg.Counter("restored_rewire_usec_total", "cumulative phase-4 rewiring wall clock, microseconds")
	s.queueUsec = s.reg.Histogram("restored_queue_usec", "job queue latency: enqueue to worker pickup, microseconds")
	s.pipelineUsec = s.reg.Histogram("restored_pipeline_usec", "pipeline execution wall clock per run, microseconds")
	s.rewireUsec = s.reg.Histogram("restored_rewire_usec", "phase-4 rewiring wall clock per run, microseconds")
	s.encodeUsec = s.reg.Histogram("restored_encode_usec", "binary graph encoding wall clock per run, microseconds")
	s.requestUsec = s.reg.Histogram("restored_request_usec", "job-endpoint service time in microseconds (healthz/metrics excluded)")
	s.reg.GaugeFunc("restored_jobs_queued", "queued-but-not-running jobs", func() int64 {
		return int64(len(s.queue))
	})
	s.reg.GaugeFunc("restored_jobs_known", "jobs retained in the job table", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.jobs))
	})
	s.reg.GaugeFunc("restored_cache_entries", "result cache entries resident", func() int64 {
		return int64(s.cache.Len())
	})
	s.reg.GaugeFunc("restored_workers", "configured pipeline worker-pool width", func() int64 {
		return int64(s.cfg.Workers)
	})

	// Crash recovery: replay the job WAL before any worker starts, so
	// every job the previous process accepted but never finished is
	// runnable again. The queue is widened to hold the whole backlog —
	// recovery must never lose accepted work to its own backpressure.
	var pending []*Job
	if cfg.CacheDir != "" {
		wal, recs, err := openWAL(walPath(cfg.CacheDir))
		if err != nil {
			return nil, err
		}
		s.wal = wal
		pending = s.replayWAL(recs)
	}
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range pending {
		s.jobs[j.ID] = j
		s.queue <- j
		s.replayed.Inc()
		s.cfg.Logf("job %s: replayed from wal", shortKey(j.ID))
	}
	if s.wal != nil {
		// Compact: every record for a finished (or cache-answered) job is
		// dead weight now; rewrite the journal down to the live backlog.
		recs := make([]walRecord, 0, len(pending))
		for _, j := range pending {
			recs = append(recs, walRecord{T: walTypeAccepted, ID: j.ID, Spec: j.spec.walSpec()})
		}
		if err := s.wal.rewrite(recs); err != nil {
			s.cfg.Logf("wal compaction failed: %v", err)
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayWAL reconstructs the backlog a crashed process left behind: for
// each id, the accepted record without a later terminal record wins. Ids
// the result cache already answers are dropped (the crash happened after
// the cache write but before the terminal record — the work is done), and
// so is any record whose spec no longer resolves to its recorded id: the
// id IS the content address, so a mismatch can only mean corruption, and
// a corrupt record must be skipped, never run as the wrong job.
func (s *Service) replayWAL(recs []walRecord) []*Job {
	live := make(map[string]*JobSpec)
	var order []string
	for _, rec := range recs {
		switch rec.T {
		case walTypeAccepted:
			if _, ok := live[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			live[rec.ID] = rec.Spec
		case walTypeFinished:
			delete(live, rec.ID)
		}
	}
	seen := make(map[string]bool)
	var jobs []*Job
	for _, id := range order {
		spec, ok := live[id]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		if spec == nil {
			s.cfg.Logf("wal: dropping job %s: accepted record has no spec", shortKey(id))
			continue
		}
		ps, err := resolveSpec(spec)
		if err != nil {
			s.cfg.Logf("wal: dropping job %s: spec no longer resolves: %v", shortKey(id), err)
			continue
		}
		if ps.key != id {
			s.cfg.Logf("wal: dropping job %s: replayed spec resolves to %s", shortKey(id), shortKey(ps.key))
			continue
		}
		if _, ok := s.cache.Get(ps.key); ok {
			continue // already answered; the cache serves resubmissions
		}
		jobs = append(jobs, newJob(ps))
	}
	return jobs
}

// Registry exposes the service metrics for /v1/metrics and exit logs.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Close stops accepting submissions, drains the queue, and waits for the
// workers to finish.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	if s.wal != nil {
		s.wal.Close()
	}
}

// Submit registers a submission and returns its job. existing reports
// whether the submission matched a job already known (queued, running, or
// finished) — the singleflight/cache-hit path. A new job is enqueued; a
// full queue fails with ErrQueueFull and registers nothing.
func (s *Service) Submit(spec *JobSpec) (job *Job, existing bool, err error) {
	ps, err := resolveSpec(spec)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if j, ok := s.jobs[ps.key]; ok {
		// A failed or cancelled job must not poison its content address
		// forever: a transient crawl failure or an operator abort would
		// otherwise turn every identical resubmission into the old outcome
		// with no way to retry short of restarting the daemon.
		// Queued/running/done jobs dedup; a terminal-unsuccessful one is
		// replaced by a fresh attempt below.
		if !j.retryable() {
			s.mu.Unlock()
			s.deduped.Inc()
			return j, true, nil
		}
	}
	// Backpressure by configured depth, not channel capacity: the channel
	// may have been widened to absorb a WAL replay backlog, and all sends
	// happen under s.mu, so this length check cannot go stale before the
	// send below.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	j := newJob(ps)
	// Durability before visibility: the accepted record reaches stable
	// storage before the job is registered or enqueued, so a worker's
	// terminal record can never precede it and a crash after this point
	// cannot lose the job. Registering inside the lock is what makes
	// identical concurrent submissions singleflight: every later submitter
	// finds this entry.
	s.walAccept(ps)
	s.jobs[ps.key] = j
	s.queue <- j
	s.mu.Unlock()
	s.submitted.Inc()
	return j, false, nil
}

// newJob constructs a queued job and arms its cancellation machinery: a
// cancel-with-cause for DELETE and, when the spec carries a timeout, a
// deadline that fires with errJobDeadline. The deadline clock starts at
// acceptance (or re-acceptance, for WAL replays), not at worker pickup.
func newJob(ps *jobSpec) *Job {
	j := &Job{
		ID:       ps.key,
		spec:     ps,
		done:     make(chan struct{}),
		state:    StateQueued,
		enqueued: time.Now(),
		trace:    obs.NewTrace(shortKey(ps.key)),
	}
	j.endQueue = j.trace.Start("queue")
	ctx := context.Background()
	if ps.timeout > 0 {
		ctx, j.stopTimer = context.WithTimeoutCause(ctx, ps.timeout, errJobDeadline)
	}
	j.ctx, j.cancel = context.WithCancelCause(ctx)
	return j
}

// walAccept journals an accepted job. Called with s.mu held, before the
// job becomes visible. An append failure degrades durability, not
// availability: the job still runs, it just will not survive a crash.
func (s *Service) walAccept(ps *jobSpec) {
	if s.wal == nil {
		return
	}
	if err := s.wal.append(walRecord{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()}); err != nil {
		s.cfg.Logf("job %s: wal append failed: %v", shortKey(ps.key), err)
		return
	}
	s.walRecords.Inc()
}

// walFinish journals a terminal transition so a restart will not replay
// work that already settled.
func (s *Service) walFinish(id, state string) {
	if s.wal == nil {
		return
	}
	if err := s.wal.append(walRecord{T: walTypeFinished, ID: id, State: state}); err != nil {
		s.cfg.Logf("job %s: wal append failed: %v", shortKey(id), err)
		return
	}
	s.walRecords.Inc()
}

// Cancel requests cancellation of a job. A queued job settles as
// cancelled immediately; a running one is interrupted at its next
// cooperative checkpoint (pipeline phase or rewiring round boundary) —
// Done() is the way to wait for it. Cancelling a terminal job reports
// ErrNotCancellable, an unknown id ErrUnknownJob.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return j, ErrNotCancellable
	}
	picked := j.picked
	j.mu.Unlock()
	j.cancel(errJobCancelled)
	if !picked {
		// Still queued: settle now instead of waiting for a worker to
		// drain it. If a worker picked it up in the window since the check,
		// settle loses the race harmlessly — the worker's first
		// checkpoint sees the cancelled context instead.
		s.finishCancel(j, errJobCancelled)
	}
	return j, nil
}

// finishCancel settles a job whose context fired. The guard in
// settle makes the bookkeeping exactly-once no matter how many
// paths (DELETE, deadline, worker checkpoint) observe the cancellation.
func (s *Service) finishCancel(j *Job, cause error) {
	if j.settle(StateCancelled, nil, cause, false, s.cancelled) {
		s.cfg.Logf("job %s: %v", shortKey(j.ID), cause)
		s.walFinish(j.ID, StateCancelled)
	}
}

// failJob settles a job that failed at step (crawl, pipeline, encode).
func (s *Service) failJob(j *Job, step string, err error) {
	if j.settle(StateFailed, nil, err, false, s.failed) {
		s.cfg.Logf("job %s: %s failed: %v", shortKey(j.ID), step, err)
		s.walFinish(j.ID, StateFailed)
	}
}

// QueueRetryAfter estimates how long a rejected submitter should wait for
// a queue slot: the live backlog divided across the worker pool, priced
// at the median pipeline run (1s before any run has been observed),
// clamped to [1s, 60s]. Pure wall-clock advice for the 429 Retry-After
// header.
func (s *Service) QueueRetryAfter() time.Duration {
	backlog := int64(len(s.queue)) + s.running.Value()
	p50 := s.pipelineUsec.Quantile(0.5)
	if p50 <= 0 {
		p50 = int64(time.Second / time.Microsecond)
	}
	d := time.Duration(p50) * time.Microsecond * time.Duration(backlog) / time.Duration(s.cfg.Workers)
	return min(max(d, time.Second), time.Minute)
}

// forget drops a job from the table. Benchmarks use it to force repeated
// identical submissions through the worker + result cache instead of the
// job-table dedup short-circuit.
func (s *Service) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Done returns a channel closed when the job finishes (either way).
func (j *Job) Done() <-chan struct{} { return j.done }

// Trace returns the job's pipeline timeline. A Trace is safe for
// concurrent use, so serving it while the job runs shows a live partial
// timeline.
func (j *Job) Trace() *obs.Trace { return j.trace }

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, State: j.state, Phase: j.phase, Cached: j.cached}
	st.QueueUS = j.queueUS
	switch {
	case j.state == StateRunning:
		st.PhaseUS = time.Since(j.started).Microseconds()
	case !j.finished.IsZero() && !j.started.IsZero():
		st.PhaseUS = j.finished.Sub(j.started).Microseconds()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.res != nil {
		st.Result = j.res.JobResult()
	}
	return st
}

// Result returns the finished result, or the job's failure.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.err != nil:
		return nil, j.err
	case j.res == nil:
		return nil, fmt.Errorf("restored: job %s not finished", j.ID)
	}
	return j.res, nil
}

// terminalState reports whether a job state admits no further
// transitions.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// startPickup marks the worker pickup: the queue span ends, the queue
// latency freezes, and the execution clock starts. It returns false when
// the job already reached a terminal state — cancelled while queued — in
// which case the worker must drop it without running anything.
func (j *Job) startPickup() bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	j.picked = true
	j.started = time.Now()
	j.queueUS = j.started.Sub(j.enqueued).Microseconds()
	j.mu.Unlock()
	j.endQueue()
	return true
}

func (j *Job) setRunning(phase string) {
	j.mu.Lock()
	j.state, j.phase = StateRunning, phase
	j.mu.Unlock()
}

// retryable reports whether a resubmission should replace this job:
// failed and cancelled are terminal-unsuccessful states that must not
// answer for their content address forever.
func (j *Job) retryable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateFailed || j.state == StateCancelled
}

// ctxErr polls the job's cancellation without blocking. It reads the
// context and nothing else — no RNG, no shared maps — so a job that
// completes was never perturbed by having been cancellable.
func (j *Job) ctxErr() error {
	select {
	case <-j.ctx.Done():
		return context.Cause(j.ctx)
	default:
		return nil
	}
}

// release drops the submission payload — the parsed crawl and its
// canonical bytes dominate a job's footprint and are dead weight once the
// worker is done with them. A finished job shrinks to its status plus a
// pointer to the (cache-shared) result, so the job table stays cheap to
// retain for status polling.
func (j *Job) release() { j.spec = nil }

// releaseCtx tears down the context machinery once the job is terminal,
// releasing the deadline timer and any goroutine parked on Done-derived
// contexts.
func (j *Job) releaseCtx() {
	j.cancel(nil)
	if j.stopTimer != nil {
		j.stopTimer()
	}
}

// settle is the one terminal transition: done (res, cached), failed or
// cancelled (err). It is guarded — the first call wins, later ones report
// false and change nothing — so the cancellation races (DELETE vs worker
// completion vs deadline) settle on exactly one outcome, one done-channel
// close, and one WAL terminal record. The tally counters are bumped before
// the done channel closes, so a waiter woken by it reads them current.
func (j *Job) settle(state string, res *Result, err error, cached bool, tally ...*obs.Counter) bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state, j.phase = state, ""
	j.res, j.cached, j.err = res, cached, err
	j.finished = time.Now()
	j.release()
	picked := j.picked
	j.mu.Unlock()
	if !picked {
		// Cancelled while queued: no worker will ever pick this job up
		// (startPickup skips terminal jobs), so close its queue span here —
		// exactly once either way.
		j.endQueue()
	}
	j.releaseCtx()
	for _, c := range tally {
		c.Inc()
	}
	close(j.done)
	return true
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.running.Add(1)
		s.run(j)
		s.running.Add(-1)
	}
}

// run executes one job: resolve the crawl (server-side for graphd
// sources), consult the content-addressed cache, and only on a miss run
// the restoration pipeline with the job's pinned seed. The job context is
// polled at the seams run owns (pickup, post-crawl) and inside the
// pipeline at phase/round boundaries via core.Options.Ctx.
func (s *Service) run(j *Job) {
	if s.testBeforeRun != nil {
		s.testBeforeRun(j)
	}
	if !j.startPickup() {
		return // cancelled while queued; already settled
	}
	s.queueUsec.Observe(j.queueUS)
	if cause := j.ctxErr(); cause != nil {
		s.finishCancel(j, cause)
		return
	}
	crawl, key := j.spec.crawl, j.ID
	if j.spec.graphd != nil {
		j.setRunning(PhaseCrawling)
		endCrawl := j.trace.StartErr("crawl")
		c, canon, err := s.crawlGraphd(j.spec)
		endCrawl(err)
		if err != nil {
			s.failJob(j, "crawl", err)
			return
		}
		crawl = c
		// Re-key by crawl content: a graphd job and an inline submission
		// of the identical crawl share one cache line.
		key = resultKey(canon, j.spec)
		if cause := j.ctxErr(); cause != nil {
			s.finishCancel(j, cause)
			return
		}
	}
	endSpan := j.trace.Start("cache_read")
	res, ok := s.cache.Get(key)
	endSpan()
	if ok {
		if j.settle(StateDone, res, nil, true, s.cacheHits, s.completed) {
			s.cfg.Logf("job %s: served from cache", shortKey(j.ID))
			s.walFinish(j.ID, StateDone)
		}
		return
	}

	j.setRunning(PhaseRestoring)
	s.pipelineRuns.Inc()
	opts := core.Options{
		RC:               j.spec.rc,
		SkipRewiring:     j.spec.skip,
		ForbidDegenerate: j.spec.forbid,
		// Cooperative cancellation: core polls this at phase boundaries
		// (and passes it down to rewiring round boundaries). The polls read
		// the context only, so a completing run is byte-identical whether
		// or not it was cancellable.
		Ctx: j.ctx,
		// The job's timeline doubles as the pipeline trace: core records
		// one span per phase into it. Wall clock only — byte-identical
		// output with or without it.
		Trace: j.trace,
		// The canonical seeded stream — the byte-identical-to-cmd/restore
		// contract.
		Rand: core.PipelineRand(j.spec.seed),
	}
	var (
		pres *core.Result
		err  error
	)
	switch j.spec.method {
	case MethodGjoka:
		pres, err = core.RestoreGjoka(crawl, opts)
	default:
		pres, err = core.Restore(crawl, opts)
	}
	if err != nil {
		if errors.Is(err, errJobCancelled) || errors.Is(err, errJobDeadline) {
			s.finishCancel(j, err)
			return
		}
		s.failJob(j, "pipeline", err)
		return
	}
	s.pipelineUS.Add(pres.TotalTime.Microseconds())
	s.rewireUS.Add(pres.RewireTime.Microseconds())
	s.pipelineUsec.Observe(pres.TotalTime.Microseconds())
	s.rewireUsec.Observe(pres.RewireTime.Microseconds())

	j.setRunning(PhaseEncoding)
	endEncode := j.trace.StartErr("encode")
	encStart := time.Now()
	bin, err := graph.AppendBinary(nil, pres.Graph)
	s.encodeUsec.Observe(time.Since(encStart).Microseconds())
	endEncode(err)
	if err != nil {
		s.failJob(j, "encode", err)
		return
	}
	result := &Result{
		GraphBin: bin,
		Meta: ResultMeta{
			Nodes:          pres.Graph.N(),
			Edges:          pres.Graph.M(),
			NumAdded:       pres.NumAdded,
			RewireAccepted: pres.RewireStats.Accepted,
			RewireAttempts: pres.RewireStats.Attempts,
			TotalMS:        float64(pres.TotalTime.Microseconds()) / 1e3,
			RewireMS:       float64(pres.RewireTime.Microseconds()) / 1e3,
		},
		g: pres.Graph,
	}
	endWrite := j.trace.StartErr("cache_write")
	err = s.cache.Put(key, result)
	endWrite(err)
	if err != nil {
		// The result survives in memory; only persistence degraded.
		s.cfg.Logf("job %s: cache persist failed: %v", shortKey(j.ID), err)
	}
	if j.settle(StateDone, result, nil, false, s.completed) {
		s.cfg.Logf("job %s: restored n=%d m=%d in %.0fms", shortKey(j.ID),
			result.Meta.Nodes, result.Meta.Edges, result.Meta.TotalMS)
		s.walFinish(j.ID, StateDone)
	}
}

// crawlGraphd performs the server-side crawl of a graphd job through
// oracle.Client — the exact crawl `crawl -url -seed` would record.
func (s *Service) crawlGraphd(ps *jobSpec) (*sampling.Crawl, []byte, error) {
	s.remoteCrawls.Inc()
	client, err := oracle.NewClient(oracle.ClientConfig{
		BaseURL:    ps.graphd.URL,
		APIKey:     ps.graphd.APIKey,
		MaxRetries: ps.graphd.Retries,
	})
	if err != nil {
		return nil, nil, err
	}
	defer client.Close()
	seedNode := -1
	if ps.graphd.SeedNode != nil {
		seedNode = *ps.graphd.SeedNode
	}
	c, err := sampling.SeededRandomWalk(client, seedNode, ps.graphd.Fraction, ps.seed)
	if cerr := client.Err(); cerr != nil {
		// A dead oracle surfaces in walkers as a bogus "isolated node";
		// report the real cause.
		return nil, nil, cerr
	}
	if err != nil {
		if client.PrivateSeen() > 0 {
			err = fmt.Errorf("%w (%d queried node(s) answered private)", err, client.PrivateSeen())
		}
		return nil, nil, err
	}
	canon, err := canonicalCrawl(c)
	if err != nil {
		return nil, nil, err
	}
	return c, canon, nil
}

// PropsWorkers exposes the configured /props worker bound.
func (s *Service) PropsWorkers() int { return s.cfg.PropsWorkers }

// PipelineRuns reports how many jobs ran the full pipeline — the counter
// the cache-hit and singleflight guarantees are asserted against.
func (s *Service) PipelineRuns() int64 { return s.pipelineRuns.Value() }

// CacheHits reports jobs answered from the result cache.
func (s *Service) CacheHits() int64 { return s.cacheHits.Value() }

// Healthz describes the service for the liveness probe.
func (s *Service) Healthz() map[string]any {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return map[string]any{
		"jobs":    jobs,
		"workers": s.cfg.Workers,
		"queued":  len(s.queue),
		"wal":     s.wal != nil,
	}
}

// shortKey abbreviates a job id for logs.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
