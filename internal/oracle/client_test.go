package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sgr/internal/sampling"
)

// fastClient dials ts with retry delays suitable for tests.
func fastClient(t testing.TB, ts *httptest.Server, opts ...func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{
		BaseURL:     ts.URL,
		MaxRetries:  12,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// crawlJSON serializes a crawl to its canonical JSON bytes.
func crawlJSON(t testing.TB, c *sampling.Crawl) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func walkRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x27d4eb2f)) }

// TestClientCrawlByteIdentical is the subsystem's headline guarantee: the
// same seeded random walk through graphd — under injected latency, jitter
// and a 30% transient-503 rate — produces a crawl byte-identical to the
// in-memory sampling.GraphAccess path.
func TestClientCrawlByteIdentical(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{
		PageSize:  5, // force heavy pagination
		Latency:   100 * time.Microsecond,
		Jitter:    100 * time.Microsecond,
		ErrorRate: 0.3,
		FaultSeed: 99,
	})
	client := fastClient(t, ts)
	if client.NumNodes() != g.N() {
		t.Fatalf("NumNodes() = %d, want %d", client.NumNodes(), g.N())
	}

	remote, err := sampling.RandomWalk(client, 17, 0.15, walkRNG(11))
	if err != nil {
		t.Fatalf("remote walk: %v (client: %v)", err, client.Err())
	}
	if client.Err() != nil {
		t.Fatalf("client error after successful crawl: %v", client.Err())
	}
	local, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 17, 0.15, walkRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crawlJSON(t, remote), crawlJSON(t, local)) {
		t.Fatal("remote crawl JSON differs from in-memory crawl")
	}
	if client.Requests() <= client.NodesFetched() {
		t.Fatalf("with 30%% faults and page size 5, requests (%d) must exceed nodes fetched (%d)",
			client.Requests(), client.NodesFetched())
	}
}

// TestClientRetries503 pins retry behavior: a server that fails each node's
// first two requests with 503 must still serve a correct answer, costing
// exactly 3 attempts per page.
func TestClientRetries503(t *testing.T) {
	g := testGraph(t)
	inner := NewServer(g, ServerConfig{})
	var mu sync.Mutex
	fails := make(map[string]int)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" {
			mu.Lock()
			n := fails[r.URL.RequestURI()]
			fails[r.URL.RequestURI()] = n + 1
			mu.Unlock()
			if n < 2 {
				writeJSON(w, http.StatusServiceUnavailable, Error{Code: ErrCodeTransient})
				return
			}
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := fastClient(t, ts)

	nb, err := client.Neighbors(7)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Neighbors(7)
	if len(nb) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(nb), len(want))
	}
	if got := client.Requests(); got != 4 { // 1 meta + 3 attempts
		t.Fatalf("Requests() = %d, want 4 (meta + two 503s + success)", got)
	}
}

// TestClientRetries429 pins rate-limit handling: a 429 with Retry-After
// within MaxBackoff is retried after the server's hint and eventually
// succeeds.
func TestClientRetries429(t *testing.T) {
	g := testGraph(t)
	inner := NewServer(g, ServerConfig{})
	var calls atomic.Int64
	var slept atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusTooManyRequests, Error{Code: ErrCodeRateLimited})
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := fastClient(t, ts, func(cfg *ClientConfig) { cfg.MaxBackoff = 10 * time.Second })
	client.sleep = func(d time.Duration) { slept.Add(int64(d)) }

	if _, err := client.Neighbors(3); err != nil {
		t.Fatal(err)
	}
	// Two 429s, each advertising Retry-After: 7s — the client must honor
	// the hint instead of its own 1ms backoff schedule.
	if got := time.Duration(slept.Load()); got != 14*time.Second {
		t.Fatalf("slept %v across retries, want 14s from Retry-After", got)
	}
}

// TestClientClampsHostileRetryAfter pins the other side of the hint
// contract: Retry-After is an untrusted suggestion, and a hostile or
// buggy server advertising an enormous wait must not park the client —
// the hint is clamped to the client's own MaxBackoff.
func TestClientClampsHostileRetryAfter(t *testing.T) {
	g := testGraph(t)
	inner := NewServer(g, ServerConfig{})
	var calls atomic.Int64
	var slept atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "10000")
			writeJSON(w, http.StatusTooManyRequests, Error{Code: ErrCodeRateLimited})
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := fastClient(t, ts) // MaxBackoff: 10ms
	client.sleep = func(d time.Duration) { slept.Add(int64(d)) }

	if _, err := client.Neighbors(3); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(slept.Load()); got != 20*time.Millisecond {
		t.Fatalf("slept %v across retries, want 2 x 10ms MaxBackoff clamp", got)
	}
}

// TestClientRetriesExhausted: a permanently failing server surfaces a hard
// error through Err() and nil through the Access interface.
func TestClientRetriesExhausted(t *testing.T) {
	g := testGraph(t)
	inner := NewServer(g, ServerConfig{})
	var down atomic.Bool
	down.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" && down.Load() {
			writeJSON(w, http.StatusServiceUnavailable, Error{Code: ErrCodeTransient})
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := fastClient(t, ts, func(c *ClientConfig) { c.MaxRetries = 2 })

	if nb := client.NeighborsOf(1); nb != nil {
		t.Fatalf("NeighborsOf on dead oracle = %v, want nil", nb)
	}
	if client.Err() == nil {
		t.Fatal("Err() must report the exhausted retries")
	}
	if got := client.Requests(); got != 4 { // meta + 3 attempts (1 + 2 retries)
		t.Fatalf("Requests() = %d, want 4", got)
	}
	// Failures are not cached: once the outage passes, the same node is
	// fetched fresh (Err keeps the first failure for diagnosis).
	down.Store(false)
	nb, err := client.Neighbors(1)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if len(nb) != g.Degree(1) {
		t.Fatalf("got %d neighbors after recovery, want %d", len(nb), g.Degree(1))
	}
	if client.Err() == nil {
		t.Fatal("Err() must keep reporting the first failure")
	}
}

// TestClientInFlightDedup: concurrent queries for the same node collapse
// onto one HTTP fetch.
func TestClientInFlightDedup(t *testing.T) {
	g := testGraph(t)
	inner := NewServer(g, ServerConfig{})
	var nodeCalls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/meta" {
			nodeCalls.Add(1)
			<-release // hold every fetch until all goroutines are queued
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := fastClient(t, ts)

	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = client.NeighborsOf(2)
		}(i)
	}
	// Wait until the single fetch is on the wire, then let it through.
	for nodeCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // give stragglers time to pile onto the entry
	close(release)
	wg.Wait()
	if nodeCalls.Load() != 1 {
		t.Fatalf("%d HTTP fetches for one node, want 1", nodeCalls.Load())
	}
	want := g.Neighbors(2)
	for i, nb := range results {
		if len(nb) != len(want) {
			t.Fatalf("waiter %d got %d neighbors, want %d", i, len(nb), len(want))
		}
	}
	if client.NodesFetched() != 1 {
		t.Fatalf("NodesFetched() = %d, want 1", client.NodesFetched())
	}
}

// TestConcurrentCrawlers is the acceptance bar: 8 crawlers with distinct
// API keys against one rate-limited, fault-injecting graphd, each crawl
// byte-identical to its in-memory reference. Run under -race in CI.
func TestConcurrentCrawlers(t *testing.T) {
	g := testGraph(t)
	srv, ts := startServer(t, g, ServerConfig{
		PageSize:  16,
		Rate:      400, // tight enough to trip under 8 crawlers' burst
		Burst:     8,
		Latency:   50 * time.Microsecond,
		ErrorRate: 0.05,
		FaultSeed: 3,
	})

	const crawlers = 8
	var wg sync.WaitGroup
	errs := make([]error, crawlers)
	for i := 0; i < crawlers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := NewClient(ClientConfig{
				BaseURL:     ts.URL,
				APIKey:      fmt.Sprintf("crawler-%d", i),
				MaxRetries:  20,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			seedNode := (i * 37) % g.N()
			remote, err := sampling.RandomWalk(client, seedNode, 0.08, walkRNG(uint64(i)))
			if err != nil {
				errs[i] = fmt.Errorf("crawler %d: %v (client: %v)", i, err, client.Err())
				return
			}
			local, err := sampling.RandomWalk(sampling.NewGraphAccess(g), seedNode, 0.08, walkRNG(uint64(i)))
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(crawlJSON(t, remote), crawlJSON(t, local)) {
				errs[i] = fmt.Errorf("crawler %d: remote crawl diverges from in-memory", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.QueriesServed() == 0 {
		t.Fatal("server served no queries")
	}
}

// TestServerSidePrivateMatchesPrivateAccess: a node hidden by graphd
// answers exactly like sampling.PrivateAccess — nil neighbors, no error —
// and the client remembers the privacy verdict.
func TestServerSidePrivateMatchesPrivateAccess(t *testing.T) {
	g := testGraph(t)
	private := []int{2, 5}
	_, ts := startServer(t, g, ServerConfig{Private: private})
	client := fastClient(t, ts)
	ref := sampling.NewPrivateAccess(sampling.NewGraphAccess(g), private)

	for _, u := range []int{2, 5, 7} {
		got, err := client.Neighbors(u)
		if err != nil {
			t.Fatalf("node %d: %v", u, err)
		}
		want := ref.NeighborsOf(u)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors over HTTP, %d via PrivateAccess", u, len(got), len(want))
		}
		if client.IsPrivate(u) != ref.IsPrivate(u) {
			t.Fatalf("node %d: IsPrivate mismatch", u)
		}
	}
	if client.Err() != nil {
		t.Fatalf("private answers must not poison Err(): %v", client.Err())
	}
	// Private answers spend budget (the server charged the request) and
	// are tallied for crawl-failure diagnostics.
	if got := client.NodesFetched(); got != 3 {
		t.Fatalf("NodesFetched() = %d, want 3 (private queries cost too)", got)
	}
	if got := client.PrivateSeen(); got != 2 {
		t.Fatalf("PrivateSeen() = %d, want 2", got)
	}
}

// TestPrivateAccessComposedWithClient: the client slots into
// sampling.PrivateAccess like any Access — a client-side privacy overlay
// over a remote crawl round-trips to the same crawl as in-memory.
func TestPrivateAccessComposedWithClient(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{ErrorRate: 0.2, FaultSeed: 5})
	client := fastClient(t, ts)

	private := []int{1, 4, 6}
	remoteAccess := sampling.NewPrivateAccess(client, private)
	localAccess := sampling.NewPrivateAccess(sampling.NewGraphAccess(g), private)

	remote, err := sampling.PrivateAwareWalk(remoteAccess, 17, 0.10, walkRNG(23))
	if err != nil {
		t.Fatalf("remote private walk: %v (client: %v)", err, client.Err())
	}
	local, err := sampling.PrivateAwareWalk(localAccess, 17, 0.10, walkRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crawlJSON(t, remote), crawlJSON(t, local)) {
		t.Fatal("private remote crawl diverges from in-memory")
	}
}

// TestClientRejectsBadBaseURL and empty meta.
func TestClientConstructorErrors(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("empty BaseURL must fail")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Meta{Nodes: 0})
	}))
	t.Cleanup(ts.Close)
	if _, err := NewClient(ClientConfig{BaseURL: ts.URL, MaxRetries: 1, BaseBackoff: time.Millisecond}); err == nil {
		t.Fatal("zero-node meta must fail")
	}
}

// countingTransport counts the HTTP attempts that reach the network.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestClientRefusedFailsFast: a refused connection means nothing listens
// at BaseURL, so at the default retry schedule (~16 s for a busy source)
// the client retries it once and gives up.
func TestClientRefusedFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	tr := &countingTransport{}
	start := time.Now()
	_, err = NewClient(ClientConfig{BaseURL: "http://" + addr, HTTPClient: &http.Client{Transport: tr}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("client against a closed port connected")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("error %v does not carry ECONNREFUSED", err)
	}
	if got := tr.n.Load(); got != 2 {
		t.Fatalf("%d requests against a closed port, want 2", got)
	}
	if elapsed >= time.Second {
		t.Fatalf("refused connection took %v to fail, want under 1s", elapsed)
	}
}
