// Package restored turns graph restoration into an asynchronous network
// service: a bounded job queue and worker pool running the full
// crawl → dK-series → rewiring pipeline behind an HTTP/JSON API, with a
// content-addressed result cache in front of the pipeline.
//
// The paper's workflow ends with a third party turning a random-walk crawl
// into a restored graph; cmd/restore does that inline, burning a core for
// the duration of every request and recomputing identical submissions from
// scratch. This package is the serving-side answer: jobs are accepted
// asynchronously (POST /v1/jobs), deduplicated — the job id IS the SHA-256
// of the canonicalized request, so concurrent identical submissions
// singleflight onto one pipeline run — and results are cached under the
// same key, in memory and optionally on disk, encoded once in the binary
// SGRB graph codec and served as zero-copy byte slices.
//
// Every job pins a caller-supplied seed and draws its pipeline RNG from
// core.PipelineRand, so a job's restored graph is byte-identical to
// `restore -seed` run offline on the same crawl — the cache can therefore
// answer for the offline tool, not just for itself.
//
// The wire protocol (version 1):
//
//	POST   /v1/jobs                   JobSpec -> JobStatus (202 new, 200 known, 400 invalid, 429 + Retry-After full)
//	GET    /v1/jobs/{id}              -> JobStatus
//	DELETE /v1/jobs/{id}              -> JobStatus (cancellation request; 409 once terminal)
//	GET    /v1/jobs/{id}/graph        -> binary SGRB bytes (?format=edgelist for text)
//	GET    /v1/jobs/{id}/props        -> the 12 structural properties, JSON
//	GET    /v1/jobs/{id}/trace        -> pipeline timeline (?format=chrome for trace_event)
//	GET    /v1/healthz, /v1/metrics   -> shared daemon endpoints
//
// A JobSpec names exactly one crawl source: an inline crawl JSON (the
// sampling package's on-disk format), an uploaded oracle crawl journal, or
// a graphd URL the daemon crawls server-side through oracle.Client.
//
// Every job also carries a deterministic pipeline timeline (internal/obs):
// ordered spans for queueing, crawling, each restoration phase, the
// aggregate rewire propose/commit rounds, encoding and the cache write,
// served by the trace endpoint as JSON or a Chrome trace_event dump, with
// queue_usec/phase_usec summarized on JobStatus. Timing is wall-clock
// observation only — it lives strictly outside the content-address
// canonicalization (TestTimingFieldsOutsideContentAddress pins this), so
// tracing never re-keys a job and adds zero nondeterminism to results.
//
// Failure model: with a cache dir configured, accepted jobs are durable —
// logged to a CRC-checked write-ahead journal before they become
// runnable, replayed on startup (skipping ids the result cache already
// answers), so a crashed daemon resumes exactly the work it had accepted.
// Jobs are also cancellable (DELETE, or a timeout_ms deadline on the
// spec): cancellation is cooperative at pipeline phase and rewiring round
// boundaries, may only abort a job, and never perturbs the bytes of a job
// that completes. Both mechanisms are pure wall-clock machinery outside
// the content address.
package restored

import "encoding/json"

// JobSpec is the body of POST /v1/jobs. Exactly one of Crawl, Journal, or
// Graphd must be set.
type JobSpec struct {
	// Seed pins the pipeline RNG (and, for Graphd jobs, the crawl RNG).
	// Results are byte-identical to `restore -seed` on the same crawl.
	Seed uint64 `json:"seed"`
	// Method is "proposed" (default) or "gjoka".
	Method string `json:"method,omitempty"`
	// RC is the rewiring-attempt coefficient; 0 selects the paper default
	// (500). Submissions with the default spelled explicitly hash
	// identically to ones that omit it. A negative value or one past
	// dkseries.MaxRC is rejected at submit with a 400.
	RC float64 `json:"rc,omitempty"`
	// SkipRewiring and ForbidDegenerate mirror core.Options.
	SkipRewiring     bool `json:"skip_rewiring,omitempty"`
	ForbidDegenerate bool `json:"forbid_degenerate,omitempty"`
	// TimeoutMS, when positive, deadlines the job: a job still unfinished
	// this many milliseconds after acceptance (re-acceptance, for a job
	// replayed from the WAL) is cancelled at its next cooperative
	// checkpoint. Wall-clock policy, NOT identity: like queue_usec and
	// phase_usec it stays outside the content address, so submissions
	// differing only in timeout dedup onto one job — and the first
	// submission's timeout governs it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Crawl is an inline crawl JSON (sampling.WriteJSON format). Whitespace
	// and field order do not affect the job identity: the crawl is
	// canonicalized before hashing.
	Crawl json.RawMessage `json:"crawl,omitempty"`
	// Journal is the text of an oracle crawl journal (crawl -url -journal);
	// it must contain a completed walk record.
	Journal string `json:"journal,omitempty"`
	// Graphd asks the daemon to crawl a graphd server-side first.
	Graphd *GraphdSource `json:"graphd,omitempty"`
}

// GraphdSource describes a server-side crawl: the daemon random-walks the
// named graphd with the job's seed through oracle.Client, then feeds the
// crawl to the pipeline. The crawl is byte-identical to
// `crawl -url URL -seed SEED`, so the result joins the same cache line an
// offline submission of that crawl would.
type GraphdSource struct {
	URL      string  `json:"url"`
	Fraction float64 `json:"fraction"`
	// SeedNode pins the walk's start node; absent (or negative) draws it
	// from the seed stream like `crawl` does.
	SeedNode *int `json:"seed_node,omitempty"`
	// APIKey and Retries are transport details (rate-limit identity,
	// retry bound); they do not enter the job identity.
	APIKey  string `json:"api_key,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

// Job states. Cancelled is terminal like failed — and like failed, an
// identical resubmission replaces a cancelled job with a fresh attempt
// instead of serving the stale abort forever.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job phases (the progress detail within StateRunning).
const (
	PhaseCrawling  = "crawling"
	PhaseRestoring = "restoring"
	PhaseEncoding  = "encoding"
)

// JobStatus is the response of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Phase string `json:"phase,omitempty"`
	// Cached reports that the result was served from the content-addressed
	// cache without running the pipeline.
	Cached bool `json:"cached,omitempty"`
	// QueueUS is the queue latency (enqueue to worker pickup) and PhaseUS
	// the execution wall clock so far (final once the job finishes), both
	// in microseconds. Pure wall-clock telemetry: neither enters the job's
	// content address — identical submissions hash identically no matter
	// how long they waited.
	QueueUS int64      `json:"queue_usec,omitempty"`
	PhaseUS int64      `json:"phase_usec,omitempty"`
	Error   string     `json:"error,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
}

// JobResult summarizes a finished restoration.
type JobResult struct {
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	NumAdded       int     `json:"num_added"`
	RewireAccepted int     `json:"rewire_accepted"`
	RewireAttempts int     `json:"rewire_attempts"`
	TotalMS        float64 `json:"total_ms"`
	RewireMS       float64 `json:"rewire_ms"`
	// GraphBytes is the size of the binary-codec download.
	GraphBytes int `json:"graph_bytes"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	Code   string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// Error codes.
const (
	ErrCodeBadRequest     = "bad_request"
	ErrCodeUnknownJob     = "unknown_job"
	ErrCodeNotReady       = "not_ready"
	ErrCodeJobFailed      = "job_failed"
	ErrCodeQueueFull      = "queue_full"
	ErrCodeShuttingDown   = "shutting_down"
	ErrCodeNotCancellable = "not_cancellable"
)
