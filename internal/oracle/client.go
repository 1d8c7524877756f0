package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sgr/internal/obs"
	"sgr/internal/sampling"
)

// Client implements the paper's access model over the wire, including the
// advisory batch-prefetch extension.
var (
	_ sampling.Access     = (*Client)(nil)
	_ sampling.Prefetcher = (*Client)(nil)
)

// ClientConfig configures a Client. Only BaseURL is required.
type ClientConfig struct {
	// BaseURL is the graphd root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when set, is sent as X-API-Key — the server's rate-limit
	// identity. Distinct crawlers should use distinct keys.
	APIKey string
	// MaxRetries bounds retries per HTTP request (beyond the first
	// attempt) on 429/5xx/transport errors. Default 8. A refused
	// connection is retried once at most: nothing listens there.
	MaxRetries int
	// BaseBackoff is the first retry delay, doubling per attempt up to
	// MaxBackoff. A 429's Retry-After header overrides the schedule.
	// Defaults 100ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RequestTimeout caps each HTTP attempt when HTTPClient is unset
	// (default 30s), so a black-holed connection fails into the retry
	// machinery instead of hanging the crawl. Ignored when HTTPClient is
	// provided — set the custom client's own Timeout.
	RequestTimeout time.Duration
	// HTTPClient overrides the transport (default: a client with
	// RequestTimeout).
	HTTPClient *http.Client
	// JournalPath, when set, opens a crawl journal there: every answered
	// query is persisted before use, and answers already journaled are
	// replayed from disk instead of the wire, so an interrupted crawl
	// rerun with the same seed resumes without re-spending budget.
	JournalPath string
}

// Client speaks the oracle wire protocol and implements sampling.Access,
// so every crawler in the repository runs unchanged against a remote
// graphd. It is safe for concurrent use by many goroutines (the acceptance
// bar is 8+ concurrent crawlers): identical in-flight queries are
// deduplicated onto one HTTP fetch, and completed answers are cached for
// the client's lifetime — matching the access model's static-graph view.
type Client struct {
	cfg     ClientConfig
	httpc   *http.Client
	baseURL string
	meta    Meta
	journal *Journal

	mu    sync.Mutex
	cache map[int]*entry

	errMu    sync.Mutex
	firstErr error

	nodesFetched atomic.Int64 // nodes answered over the wire (budget spent)
	requests     atomic.Int64 // HTTP attempts issued, including retries
	privateSeen  atomic.Int64 // private answers observed (wire or journal)

	// Transport telemetry behind Stats(). queryUsec measures whole getJSON
	// calls — retries, backoff sleeps and pagination included — because the
	// crawler-visible wait per query is the cost that dominates real OSN
	// crawls, not server CPU. None of this feeds crawl bytes: the crawl is
	// byte-identical whatever the latencies were.
	retries         atomic.Int64   // attempts beyond the first, per request
	rateLimited     atomic.Int64   // 429 answers observed
	backoffUS       atomic.Int64   // cumulative backoff sleep, microseconds
	cacheHits       atomic.Int64   // Neighbors served from cache (journal replays included)
	prefetchBatches atomic.Int64   // batch requests issued by Prefetch
	prefetchNodes   atomic.Int64   // nodes claimed by Prefetch
	queryUsec       *obs.Histogram // per-query wait (full retry loop)

	sleep func(time.Duration)
}

// Stats is a point-in-time snapshot of the client's transport telemetry.
// Pure observation: two crawls with wildly different Stats still produce
// byte-identical crawl records at the same seed.
type Stats struct {
	// NodesFetched, Requests mirror the accessor methods.
	NodesFetched int64 `json:"nodes_fetched"`
	Requests     int64 `json:"requests"`
	// Retries counts HTTP attempts beyond each request's first; RateLimited
	// counts 429 answers; Backoff is the total time slept between attempts
	// (serialized in nanoseconds, time.Duration's integer form).
	Retries     int64         `json:"retries"`
	RateLimited int64         `json:"rate_limited"`
	Backoff     time.Duration `json:"backoff_ns"`
	// CacheHits counts Neighbors calls answered without a fetch (lifetime
	// cache, journal replays included). PrefetchBatches/PrefetchNodes count
	// batched warm-up requests and the nodes they claimed.
	CacheHits       int64 `json:"cache_hits"`
	PrefetchBatches int64 `json:"prefetch_batches"`
	PrefetchNodes   int64 `json:"prefetch_nodes"`
	// Queries is the latency-histogram population; QueryP50/QueryP99 are
	// its quantile readouts (upper bucket bounds, so never optimistic).
	Queries  int64         `json:"queries"`
	QueryP50 time.Duration `json:"query_p50_ns"`
	QueryP99 time.Duration `json:"query_p99_ns"`
}

// Stats snapshots the client's transport telemetry.
func (c *Client) Stats() Stats {
	return Stats{
		NodesFetched:    c.nodesFetched.Load(),
		Requests:        c.requests.Load(),
		Retries:         c.retries.Load(),
		RateLimited:     c.rateLimited.Load(),
		Backoff:         time.Duration(c.backoffUS.Load()) * time.Microsecond,
		CacheHits:       c.cacheHits.Load(),
		PrefetchBatches: c.prefetchBatches.Load(),
		PrefetchNodes:   c.prefetchNodes.Load(),
		Queries:         c.queryUsec.Count(),
		QueryP50:        time.Duration(c.queryUsec.Quantile(0.50)) * time.Microsecond,
		QueryP99:        time.Duration(c.queryUsec.Quantile(0.99)) * time.Microsecond,
	}
}

// entry is one node's cache slot. done closes when nb/private/err are
// final; waiters block on it, so one fetch serves every concurrent caller.
type entry struct {
	done    chan struct{}
	nb      []int
	private bool
	err     error
}

// errPrivateNode marks a 403 "private" answer internally; callers see a
// nil neighbor list with no error, per sampling.PrivateAccess semantics.
var errPrivateNode = errors.New("private node")

// NewClient connects to a graphd, fetching /v1/meta (with retries) and
// replaying the journal when configured. Close releases the journal.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("oracle: ClientConfig.BaseURL is required")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	c := &Client{
		cfg:       cfg,
		httpc:     cfg.HTTPClient,
		baseURL:   strings.TrimRight(cfg.BaseURL, "/"),
		cache:     make(map[int]*entry),
		queryUsec: obs.NewHistogram(),
		sleep:     time.Sleep,
	}
	if c.httpc == nil {
		c.httpc = &http.Client{Timeout: cfg.RequestTimeout}
	}
	if err := c.getJSON(c.baseURL+"/v1/meta", &c.meta); err != nil {
		return nil, fmt.Errorf("oracle: fetching meta from %s: %w", cfg.BaseURL, err)
	}
	if c.meta.Nodes <= 0 {
		return nil, fmt.Errorf("oracle: server reports %d nodes", c.meta.Nodes)
	}
	if cfg.JournalPath != "" {
		j, entries, _, err := OpenJournal(cfg.JournalPath, c.meta.Nodes)
		if err != nil {
			return nil, err
		}
		c.journal = j
		for _, je := range entries {
			e := &entry{done: make(chan struct{}), nb: je.Neighbors, private: je.Private}
			close(e.done)
			c.cache[je.U] = e
			if je.Private {
				c.privateSeen.Add(1)
			}
		}
	}
	return c, nil
}

// Close releases the journal, if any.
func (c *Client) Close() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Close()
}

// NumNodes implements sampling.Access from the cached /v1/meta answer.
func (c *Client) NumNodes() int { return c.meta.Nodes }

// PageSize reports the server's pagination unit.
func (c *Client) PageSize() int { return c.meta.PageSize }

// NodesFetched reports how many node answers were paid for over the wire
// (journal replays and cache hits are free).
func (c *Client) NodesFetched() int64 { return c.nodesFetched.Load() }

// Requests reports HTTP attempts issued, including retries and pagination.
func (c *Client) Requests() int64 { return c.requests.Load() }

// PrivateSeen reports how many queried nodes answered private (over the
// wire or replayed from the journal). Crawl drivers use it to explain
// walks that die on hidden neighbor lists.
func (c *Client) PrivateSeen() int64 { return c.privateSeen.Load() }

// Err returns the first hard failure (retries exhausted, protocol error)
// the client has hit. NeighborsOf cannot return an error through
// sampling.Access, so crawl drivers must check Err after a failed crawl to
// distinguish network death from a genuinely stuck walk.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

// IsPrivate reports whether a *previously queried* node answered 403
// private. Unqueried nodes report false — privacy over the wire is only
// observable by spending the query, unlike sampling.PrivateAccess.
func (c *Client) IsPrivate(u int) bool {
	c.mu.Lock()
	e, ok := c.cache[u]
	c.mu.Unlock()
	if !ok {
		return false
	}
	<-e.done
	return e.private
}

// NeighborsOf implements sampling.Access. Private nodes and hard failures
// both yield nil; Err distinguishes them.
func (c *Client) NeighborsOf(u int) []int {
	nb, _ := c.Neighbors(u)
	return nb
}

// Neighbors returns u's full neighbor list, reassembled across pages, in
// the server's stable order. Concurrent calls for the same node share one
// fetch; completed answers are served from cache.
func (c *Client) Neighbors(u int) ([]int, error) {
	c.mu.Lock()
	if e, ok := c.cache[u]; ok {
		c.mu.Unlock()
		c.cacheHits.Add(1)
		<-e.done
		return e.nb, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.cache[u] = e
	c.mu.Unlock()

	nb, err := c.fetchNode(u)
	return c.commit(u, e, nb, err)
}

// commit finalizes an in-flight cache entry with a fetched answer (or
// failure), journals it, and releases the entry's waiters. It is the single
// completion path shared by Neighbors and Prefetch.
func (c *Client) commit(u int, e *entry, nb []int, err error) ([]int, error) {
	switch {
	case errors.Is(err, errPrivateNode):
		// A private answer still spends the query (the server charged the
		// request), it just yields no data.
		e.private = true
		c.nodesFetched.Add(1)
		c.privateSeen.Add(1)
	case err != nil:
		e.err = err
		c.recordErr(err)
	default:
		e.nb = nb
		c.nodesFetched.Add(1)
	}
	if c.journal != nil && e.err == nil {
		if jerr := c.journal.Append(u, e.nb, e.private); jerr != nil {
			e.nb, e.private = nil, false
			e.err = fmt.Errorf("oracle: journaling node %d: %w", u, jerr)
			c.recordErr(e.err)
		}
	}
	if e.err != nil {
		// Only answers are cached. Dropping the failed entry (before
		// releasing its waiters) lets a later query retry the node once
		// the outage passes, instead of serving the stale error for the
		// client's lifetime; Err keeps the first failure for diagnosis.
		c.mu.Lock()
		if c.cache[u] == e {
			delete(c.cache, u)
		}
		c.mu.Unlock()
	}
	close(e.done)
	return e.nb, e.err
}

// Prefetch warms the neighbor cache for ids the caller is certain to query
// — sampling's BFS-family crawlers hand it the frontier prefix covered by
// the remaining budget — using the server's batched endpoint to amortize
// HTTP round trips. It implements sampling.Prefetcher and is purely
// advisory: every answer flows through the same commit path as Neighbors
// (budget accounting, journal, dedup), so crawls are byte-identical with
// and without it. Ids already cached or in flight are skipped; nodes whose
// batch answer is incomplete (paginated hubs) or missing fall back to the
// single-node path. Against a server without the batch endpoint
// (Meta.MaxBatch == 0) it is a no-op.
func (c *Client) Prefetch(ids []int) {
	if c.meta.MaxBatch <= 0 || len(ids) == 0 {
		return
	}
	var owned []int
	var entries []*entry
	c.mu.Lock()
	for _, u := range ids {
		if u < 0 || u >= c.meta.Nodes {
			continue
		}
		if _, ok := c.cache[u]; ok {
			continue
		}
		e := &entry{done: make(chan struct{})}
		c.cache[u] = e
		owned = append(owned, u)
		entries = append(entries, e)
	}
	c.mu.Unlock()
	c.prefetchNodes.Add(int64(len(owned)))
	for len(owned) > 0 {
		n := len(owned)
		if n > c.meta.MaxBatch {
			n = c.meta.MaxBatch
		}
		c.prefetchBatches.Add(1)
		c.prefetchChunk(owned[:n], entries[:n])
		owned, entries = owned[n:], entries[n:]
	}
}

// prefetchChunk resolves one batch request's worth of claimed entries.
// Every claimed entry is committed exactly once — a batch answer when it is
// complete, the single-node fetch path otherwise — so waiters never block
// on an abandoned entry.
func (c *Client) prefetchChunk(ids []int, entries []*entry) {
	var sb strings.Builder
	sb.WriteString(c.baseURL)
	sb.WriteString("/v1/neighbors?ids=")
	for i, u := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(u))
	}
	var resp BatchNeighborsResponse
	items := make(map[int]*BatchItem, len(ids))
	if err := c.getJSON(sb.String(), &resp); err == nil {
		for i := range resp.Results {
			items[resp.Results[i].ID] = &resp.Results[i]
		}
	}
	for i, u := range ids {
		e := entries[i]
		if it, ok := items[u]; ok {
			switch {
			case it.Error == ErrCodePrivate:
				c.commit(u, e, nil, errPrivateNode)
				continue
			case it.Error == "" && it.NextCursor == 0 && len(it.Neighbors) == it.Degree:
				nb := it.Neighbors
				if len(nb) == 0 {
					nb = nil // match the single-node path for degree-0 nodes
				}
				c.commit(u, e, nb, nil)
				continue
			case it.Error == "" && it.NextCursor > 0:
				// Paginated hub: keep the batch-served first page and
				// continue from its cursor on the single-node endpoint, so
				// no neighbors transfer twice and the hub costs exactly
				// one served query per page, like plain pagination.
				nb, err := c.fetchNodeFrom(u, append([]int(nil), it.Neighbors...), it.NextCursor)
				c.commit(u, e, nb, err)
				continue
			}
		}
		// Batch failed, item missing, or an unknown id: resolve through
		// the single-node path, retries and all.
		nb, err := c.fetchNode(u)
		c.commit(u, e, nb, err)
	}
}

// RecordWalk appends the completed walk sequence to the journal, turning
// it into a self-contained crawl for LoadCrawlFromJournal.
func (c *Client) RecordWalk(walk []int) error {
	if c.journal == nil {
		return errors.New("oracle: client has no journal")
	}
	return c.journal.AppendWalk(walk)
}

func (c *Client) recordErr(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

// fetchNode reassembles u's neighbor list across pages.
func (c *Client) fetchNode(u int) ([]int, error) {
	return c.fetchNodeFrom(u, nil, 0)
}

// fetchNodeFrom continues reassembling u's neighbor list from cursor,
// with nb holding the neighbors already received (a batch answer's first
// page, or nothing).
func (c *Client) fetchNodeFrom(u int, nb []int, cursor int) ([]int, error) {
	for {
		var page NeighborsPage
		url := fmt.Sprintf("%s/v1/nodes/%d/neighbors", c.baseURL, u)
		if cursor > 0 {
			url += "?cursor=" + strconv.Itoa(cursor)
		}
		if err := c.getJSON(url, &page); err != nil {
			return nil, fmt.Errorf("oracle: node %d cursor %d: %w", u, cursor, err)
		}
		nb = append(nb, page.Neighbors...)
		if page.NextCursor == 0 {
			if len(nb) != page.Degree {
				return nil, fmt.Errorf("oracle: node %d: reassembled %d neighbors, server reports degree %d",
					u, len(nb), page.Degree)
			}
			return nb, nil
		}
		if page.NextCursor <= cursor {
			return nil, fmt.Errorf("oracle: node %d: non-advancing cursor %d", u, page.NextCursor)
		}
		cursor = page.NextCursor
	}
}

// getJSON issues one GET with bounded retries and exponential backoff,
// decoding a 200 body into out. 429 (honoring Retry-After, clamped to
// MaxBackoff), any 5xx, transport errors — timeouts, resets, truncated
// reads — and 200 bodies that fail to decode all retry; 4xx protocol
// errors are permanent.
func (c *Client) getJSON(url string, out any) error {
	start := time.Now()
	defer func() { c.queryUsec.Observe(time.Since(start).Microseconds()) }()
	var lastErr error
	refused := 0
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			d := c.backoff(attempt, lastErr)
			c.backoffUS.Add(d.Microseconds())
			c.sleep(d)
		}
		c.requests.Add(1)
		resp, err := c.doGet(url)
		if err != nil {
			lastErr = err
			// A refused connection is a dead source, not a busy one:
			// retry it once, then give up instead of sitting out the
			// whole backoff schedule.
			if errors.Is(err, syscall.ECONNREFUSED) {
				if refused++; refused > 1 {
					return fmt.Errorf("giving up after %d attempts: %w", attempt+1, err)
				}
			}
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if err := json.Unmarshal(body, out); err != nil {
				// A 200 whose body does not parse is transport damage — a
				// truncated read the framing didn't catch, a corrupting
				// proxy — not a protocol answer. Treating it as permanent
				// would kill a crawl a single clean retry could save.
				lastErr = fmt.Errorf("decoding response: %w", err)
				continue
			}
			return nil
		case resp.StatusCode == http.StatusForbidden && errCode(body) == ErrCodePrivate:
			return errPrivateNode
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			if resp.StatusCode == http.StatusTooManyRequests {
				c.rateLimited.Add(1)
			}
			lastErr = &retriableStatus{status: resp.StatusCode, retryAfter: parseRetryAfter(resp)}
			continue
		default:
			return fmt.Errorf("HTTP %d (%s)", resp.StatusCode, errCode(body))
		}
	}
	return fmt.Errorf("giving up after %d attempts: %w", c.cfg.MaxRetries+1, lastErr)
}

func (c *Client) doGet(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.cfg.APIKey != "" {
		req.Header.Set("X-API-Key", c.cfg.APIKey)
	}
	return c.httpc.Do(req)
}

// retriableStatus carries a retry-worthy HTTP status and the server's
// Retry-After hint (0 when absent).
type retriableStatus struct {
	status     int
	retryAfter time.Duration
}

func (e *retriableStatus) Error() string { return fmt.Sprintf("HTTP %d", e.status) }

// backoff returns the delay before retry number attempt (1-based): the
// server's Retry-After when the last failure carried one, else
// BaseBackoff doubled per attempt. Either way the delay is capped at
// MaxBackoff — Retry-After is a hint from an untrusted peer, and a
// hostile or buggy value must not park the crawler for an hour.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	var rs *retriableStatus
	if errors.As(lastErr, &rs) && rs.retryAfter > 0 {
		if rs.retryAfter > c.cfg.MaxBackoff {
			return c.cfg.MaxBackoff
		}
		return rs.retryAfter
	}
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	return d
}

// parseRetryAfter reads Retry-After as (possibly fractional) seconds; 0
// means absent or unparseable and falls back to the backoff schedule.
func parseRetryAfter(resp *http.Response) time.Duration {
	s, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

func errCode(body []byte) string {
	var e Error
	if json.Unmarshal(body, &e) != nil || e.Code == "" {
		return "unknown error"
	}
	return e.Code
}
