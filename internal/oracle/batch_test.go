package oracle

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"sgr/internal/sampling"
)

// TestServerPageEncodingMatchesEncodingJSON pins the pooled hand-rolled
// page encoder to encoding/json's output for the NeighborsPage struct,
// byte for byte (including the Encoder.Encode trailing newline), so wire
// compatibility with pre-CSR servers is structural, not accidental.
func TestServerPageEncodingMatchesEncodingJSON(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{PageSize: 3})
	hub := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	for _, tc := range []struct{ id, cursor int }{
		{5, 0},               // one-page node
		{hub, 0},             // paginated first page
		{hub, 3},             // continuation page
		{hub, g.Degree(hub)}, // empty final page
	} {
		url := fmt.Sprintf("%s/v1/nodes/%d/neighbors?cursor=%d", ts.URL, tc.id, tc.cursor)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d cursor %d: status %d", tc.id, tc.cursor, resp.StatusCode)
		}
		nb := g.Neighbors(tc.id)
		end := tc.cursor + 3
		want := NeighborsPage{ID: tc.id, Degree: len(nb)}
		if end >= len(nb) {
			end = len(nb)
		} else {
			want.NextCursor = end
		}
		want.Neighbors = append([]int{}, nb[tc.cursor:end]...)
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(body); got != string(wantJSON)+"\n" {
			t.Fatalf("node %d cursor %d: body %q want %q", tc.id, tc.cursor, got, string(wantJSON)+"\n")
		}
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestServerBatchNeighbors(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{PageSize: 5, MaxBatch: 4, Private: []int{2}})
	var m Meta
	if getAs(t, ts.URL+"/v1/meta", &m); m.MaxBatch != 4 {
		t.Fatalf("meta.MaxBatch = %d want 4", m.MaxBatch)
	}

	var resp BatchNeighborsResponse
	url := fmt.Sprintf("%s/v1/neighbors?ids=5,2,%d,0", ts.URL, g.N())
	if code := getAs(t, url, &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(resp.Results))
	}
	// Item 0: ordinary node, first page in adjacency order.
	it := resp.Results[0]
	nb := g.Neighbors(5)
	wantLen := len(nb)
	if wantLen > 5 {
		wantLen = 5
	}
	if it.ID != 5 || it.Error != "" || it.Degree != len(nb) || len(it.Neighbors) != wantLen {
		t.Fatalf("item 0 = %+v", it)
	}
	for i := 0; i < wantLen; i++ {
		if it.Neighbors[i] != nb[i] {
			t.Fatalf("item 0 neighbor order diverges at %d", i)
		}
	}
	if len(nb) > 5 && it.NextCursor != 5 {
		t.Fatalf("item 0 next_cursor = %d want 5", it.NextCursor)
	}
	// Item 1: private; item 2: unknown node — per-item errors.
	if resp.Results[1].Error != ErrCodePrivate || resp.Results[1].ID != 2 {
		t.Fatalf("private item = %+v", resp.Results[1])
	}
	if resp.Results[2].Error != ErrCodeUnknownNode {
		t.Fatalf("unknown item = %+v", resp.Results[2])
	}
	if resp.Results[3].Error != "" || resp.Results[3].ID != 0 {
		t.Fatalf("item 3 = %+v", resp.Results[3])
	}

	// Oversized and malformed batches are whole-request errors.
	var e Error
	if code := getAs(t, ts.URL+"/v1/neighbors?ids=1,2,3,4,5", &e); code != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d", code)
	}
	if code := getAs(t, ts.URL+"/v1/neighbors?ids=1,x", &e); code != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", code)
	}
	if code := getAs(t, ts.URL+"/v1/neighbors", &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
}

// TestServerBatchCountsQueries: a batch of k served nodes advances
// QueriesServed by k, so budget telemetry cannot be gamed through batching.
func TestServerBatchCountsQueries(t *testing.T) {
	g := testGraph(t)
	srv, ts := startServer(t, g, ServerConfig{MaxBatch: 8, Private: []int{3}})
	var resp BatchNeighborsResponse
	if code := getAs(t, ts.URL+"/v1/neighbors?ids=0,1,3,4", &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	// 3 public nodes served; the private answer costs no served query.
	if got := srv.QueriesServed(); got != 3 {
		t.Fatalf("QueriesServed = %d want 3", got)
	}
}

// TestClientPrefetchCrawlsByteIdentical is the batching acceptance test:
// BFS, snowball and forest-fire crawls through a prefetching client against
// a batch-capable server (with pagination forced low so hub fallback runs)
// are byte-identical to the in-memory crawls, and the client pays for
// exactly the distinct nodes the crawl queried — prefetching never spends
// extra budget.
func TestClientPrefetchCrawlsByteIdentical(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{PageSize: 7, MaxBatch: 5})
	crawlers := map[string]func(a sampling.Access, seed uint64) (*sampling.Crawl, error){
		"bfs": func(a sampling.Access, seed uint64) (*sampling.Crawl, error) {
			return sampling.BFS(a, 17, 0.15)
		},
		"snowball": func(a sampling.Access, seed uint64) (*sampling.Crawl, error) {
			return sampling.Snowball(a, 17, 5, 0.15, walkRNG(seed))
		},
		"forestfire": func(a sampling.Access, seed uint64) (*sampling.Crawl, error) {
			return sampling.ForestFire(a, 17, 0.7, 0.15, walkRNG(seed))
		},
	}
	for name, crawl := range crawlers {
		t.Run(name, func(t *testing.T) {
			client := fastClient(t, ts)
			defer client.Close()
			remote, err := crawl(client, 99)
			if err != nil {
				t.Fatalf("remote: %v (client err: %v)", err, client.Err())
			}
			local, err := crawl(sampling.NewGraphAccess(g), 99)
			if err != nil {
				t.Fatalf("local: %v", err)
			}
			if !reflect.DeepEqual(crawlJSON(t, remote), crawlJSON(t, local)) {
				t.Fatal("remote crawl with prefetch diverges from in-memory crawl")
			}
			if got, want := client.NodesFetched(), int64(len(local.Queried())); got != want {
				t.Fatalf("NodesFetched = %d want %d (prefetch must not spend extra budget)", got, want)
			}
		})
	}
}

// TestClientPrefetchAgainstBatchlessServer: a server that does not
// advertise the batch endpoint turns Prefetch into a no-op and the crawl
// still completes identically over single-node queries.
func TestClientPrefetchAgainstBatchlessServer(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{MaxBatch: -1})
	var m Meta
	getAs(t, ts.URL+"/v1/meta", &m)
	if m.MaxBatch != 0 {
		t.Fatalf("batchless server advertises MaxBatch %d", m.MaxBatch)
	}
	// The route is not registered at all, so the mux's plain-text 404
	// answers (no JSON body to decode).
	if code := getAs(t, ts.URL+"/v1/neighbors?ids=1,2", nil); code != http.StatusNotFound {
		t.Fatalf("batch endpoint on batchless server: status %d", code)
	}
	client := fastClient(t, ts)
	defer client.Close()
	client.Prefetch([]int{1, 2, 3}) // must be a silent no-op
	remote, err := sampling.BFS(client, 17, 0.10)
	if err != nil {
		t.Fatalf("%v (client err: %v)", err, client.Err())
	}
	local, err := sampling.BFS(sampling.NewGraphAccess(g), 17, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crawlJSON(t, remote), crawlJSON(t, local)) {
		t.Fatal("batchless crawl diverges from in-memory crawl")
	}
}

// TestClientPrefetchDedupAndPrivate: prefetched answers land in the shared
// cache (no re-fetch on the later query) and private answers keep
// PrivateAccess semantics and accounting.
func TestClientPrefetchDedupAndPrivate(t *testing.T) {
	g := testGraph(t)
	srv, ts := startServer(t, g, ServerConfig{MaxBatch: 8, Private: []int{4}})
	client := fastClient(t, ts)
	defer client.Close()
	client.Prefetch([]int{4, 5, 6})
	if got := srv.QueriesServed(); got != 2 {
		t.Fatalf("QueriesServed after prefetch = %d want 2", got)
	}
	reqs := client.Requests()
	nb, err := client.Neighbors(5)
	if err != nil || len(nb) != g.Degree(5) {
		t.Fatalf("Neighbors(5) after prefetch: %v, %d neighbors", err, len(nb))
	}
	if client.Requests() != reqs {
		t.Fatal("cached prefetch answer still hit the wire")
	}
	if nb := client.NeighborsOf(4); nb != nil {
		t.Fatal("private node must answer nil")
	}
	if !client.IsPrivate(4) || client.PrivateSeen() != 1 {
		t.Fatalf("private accounting: IsPrivate=%v PrivateSeen=%d", client.IsPrivate(4), client.PrivateSeen())
	}
	if got := client.NodesFetched(); got != 3 {
		t.Fatalf("NodesFetched = %d want 3 (private prefetches cost too)", got)
	}
}

// TestClientPrefetchHubContinuation: a prefetched hub whose list exceeds
// the page size keeps its batch-served first page and continues from the
// returned cursor — the hub costs exactly one served query per page (like
// plain pagination) and no neighbors transfer twice.
func TestClientPrefetchHubContinuation(t *testing.T) {
	g := testGraph(t)
	hub := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	const pageSize = 4
	deg := g.Degree(hub)
	if deg <= pageSize {
		t.Fatalf("test graph hub degree %d too small", deg)
	}
	srv, ts := startServer(t, g, ServerConfig{PageSize: pageSize, MaxBatch: 8})
	client := fastClient(t, ts)
	defer client.Close()
	client.Prefetch([]int{hub})
	wantPages := int64((deg + pageSize - 1) / pageSize)
	if got := srv.QueriesServed(); got != wantPages {
		t.Fatalf("QueriesServed = %d want %d (one per page, first page from the batch)", got, wantPages)
	}
	nb, err := client.Neighbors(hub)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Neighbors(hub)
	if len(nb) != len(want) {
		t.Fatalf("reassembled %d neighbors want %d", len(nb), len(want))
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbor order diverges at %d", i)
		}
	}
	if client.NodesFetched() != 1 {
		t.Fatalf("NodesFetched = %d want 1", client.NodesFetched())
	}
}

// TestClientPrefetchJournaled: prefetched answers are journaled like
// single-node answers, so a resumed crawl replays them for free.
func TestClientPrefetchJournaled(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{MaxBatch: 8})
	path := t.TempDir() + "/crawl.journal"
	c1 := fastClient(t, ts, func(cfg *ClientConfig) { cfg.JournalPath = path })
	c1.Prefetch([]int{1, 2, 3})
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := fastClient(t, ts, func(cfg *ClientConfig) { cfg.JournalPath = path })
	defer c2.Close()
	reqs := c2.Requests()
	for _, u := range []int{1, 2, 3} {
		nb, err := c2.Neighbors(u)
		if err != nil || len(nb) != g.Degree(u) {
			t.Fatalf("replayed node %d: %v, %d neighbors", u, err, len(nb))
		}
	}
	if c2.Requests() != reqs {
		t.Fatal("journaled prefetch answers were re-fetched over the wire")
	}
	if c2.NodesFetched() != 0 {
		t.Fatalf("replay spent budget: NodesFetched = %d", c2.NodesFetched())
	}
}
