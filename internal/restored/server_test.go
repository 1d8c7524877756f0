package restored

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sgr/internal/graph"
	"sgr/internal/props"
)

// startHTTP boots a Service behind its HTTP handler.
func startHTTP(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postJob submits a spec over HTTP, returning the status code and decoded
// JobStatus.
func postJob(t *testing.T, url string, spec *JobSpec) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, st
}

// getBody GETs a URL and returns status, body, and the Retry-After header.
func getBody(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Retry-After")
}

// pollDone polls the status endpoint until the job leaves the queue.
func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body, _ := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone:
			return st
		case StateFailed:
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return JobStatus{}
}

// TestHTTPSubmitPollDownload drives the wire protocol end to end and pins
// every download format against the offline pipeline.
func TestHTTPSubmitPollDownload(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	offline, offlineBin := offlineRestore(t, c, 5, 3)
	svc, ts := startHTTP(t, Config{})

	code, st := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	if !validKey(st.ID) {
		t.Fatalf("job id %q is not a content hash", st.ID)
	}
	final := pollDone(t, ts.URL, st.ID)
	if final.Result == nil || final.Result.Nodes != offline.Graph.N() ||
		final.Result.Edges != offline.Graph.M() || final.Result.GraphBytes != len(offlineBin) {
		t.Fatalf("final status result = %+v", final.Result)
	}

	// Binary download: byte-identical to the offline codec output.
	code, bin, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/graph")
	if code != http.StatusOK || !bytes.Equal(bin, offlineBin) {
		t.Fatalf("binary download: HTTP %d, %d bytes (want %d identical bytes)",
			code, len(bin), len(offlineBin))
	}
	if _, err := graph.DecodeBinary(bin); err != nil {
		t.Fatalf("binary download does not decode: %v", err)
	}

	// Edge-list download: byte-identical to cmd/restore -out.
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, offline.Graph); err != nil {
		t.Fatal(err)
	}
	code, text, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/graph?format=edgelist")
	if code != http.StatusOK || !bytes.Equal(text, edges.Bytes()) {
		t.Fatalf("edge-list download: HTTP %d, mismatch=%v", code, !bytes.Equal(text, edges.Bytes()))
	}

	// Props download: the 12 properties of the restored graph, computed at
	// the service's worker bound.
	code, propsBody, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/props")
	if code != http.StatusOK {
		t.Fatalf("props download: HTTP %d", code)
	}
	want, err := json.Marshal(props.Compute(offline.Graph, props.Options{Workers: svc.PropsWorkers()}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(propsBody, "\n"), want) {
		t.Fatal("props JSON differs from offline computation")
	}

	// Resubmission: 200 (not 202) and immediately done.
	code, again := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if code != http.StatusOK || again.State != StateDone || again.ID != st.ID {
		t.Fatalf("resubmit: HTTP %d state %s id match %v", code, again.State, again.ID == st.ID)
	}
	if svc.PipelineRuns() != 1 {
		t.Fatalf("pipeline runs = %d", svc.PipelineRuns())
	}
}

// TestPropsBytesIndependentOfPropsWorkers serves the same job from two
// daemons, one computing /props serially and one at three workers: the
// bytes must be equal, because PropsWorkers bounds CPU, not the result.
func TestPropsBytesIndependentOfPropsWorkers(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.3)
	var bodies [][]byte
	for _, workers := range []int{1, 3} {
		svc, ts := startHTTP(t, Config{PropsWorkers: workers})
		if svc.PropsWorkers() != workers {
			t.Fatalf("PropsWorkers() = %d, want %d", svc.PropsWorkers(), workers)
		}
		_, st := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
		pollDone(t, ts.URL, st.ID)
		code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/props")
		if code != http.StatusOK {
			t.Fatalf("props workers=%d: HTTP %d", workers, code)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("/props bytes differ between PropsWorkers 1 and 3")
	}
}

// TestHTTPHealthzAndMetrics covers the shared daemon endpoints.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.1)
	_, ts := startHTTP(t, Config{})
	code, st := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollDone(t, ts.URL, st.ID)

	code, body, _ := getBody(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz: HTTP %d %s", code, body)
	}
	code, body, _ = getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	metrics := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue // HELP/TYPE exposition comments
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad metrics line %q", line)
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad metrics value in %q", line)
		}
		metrics[name] = int64(n)
	}
	for name, want := range map[string]int64{
		"restored_jobs_submitted":                  1,
		"restored_jobs_completed":                  1,
		"restored_pipeline_runs":                   1,
		"restored_cache_entries":                   1,
		"restored_jobs_failed":                     0,
		"restored_queue_usec_count":                1,
		"restored_pipeline_usec_count":             1,
		`restored_pipeline_usec_bucket{le="+Inf"}`: 1,
	} {
		if metrics[name] != want {
			t.Errorf("%s = %d, want %d", name, metrics[name], want)
		}
	}
}

// TestHTTPJobTrace drives the trace endpoint: a finished job serves an
// ordered span timeline covering the measured pipeline time (the
// acceptance criterion), the Chrome dump is well-formed trace_event JSON,
// and the status carries its wall-clock-only timeline fields.
func TestHTTPJobTrace(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.1)
	_, ts := startHTTP(t, Config{})
	code, st := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := pollDone(t, ts.URL, st.ID)
	if final.PhaseUS <= 0 {
		t.Fatalf("done status phase_usec = %d, want > 0", final.PhaseUS)
	}
	if final.QueueUS < 0 {
		t.Fatalf("done status queue_usec = %d", final.QueueUS)
	}

	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", code, body)
	}
	var tl struct {
		Name    string `json:"name"`
		TotalUS int64  `json:"total_usec"`
		Spans   []struct {
			Name    string `json:"name"`
			StartUS int64  `json:"start_usec"`
			DurUS   int64  `json:"dur_usec"`
			Count   int64  `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	got := make(map[string]bool, len(tl.Spans))
	var phaseSum int64
	for i, sp := range tl.Spans {
		got[sp.Name] = true
		if sp.StartUS < 0 || sp.DurUS < 0 {
			t.Fatalf("span %q has negative timing", sp.Name)
		}
		if i > 0 && sp.StartUS < tl.Spans[i-1].StartUS {
			t.Fatalf("span %q starts before its predecessor %q", sp.Name, tl.Spans[i-1].Name)
		}
		if sp.Count == 0 { // plain phase spans; timers aggregate across them
			phaseSum += sp.DurUS
		}
	}
	for _, want := range []string{
		"queue", "cache_read", "estimate", "subgraph", "phase1_degree_vector",
		"phase2_jdm", "phase3_construct", "phase4_rewire", "encode", "cache_write",
	} {
		if !got[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
	if tl.TotalUS <= 0 || phaseSum > 2*tl.TotalUS {
		t.Fatalf("trace total %dus does not cover phase sum %dus", tl.TotalUS, phaseSum)
	}

	// The Chrome dump decodes as a trace_event file with one event per span.
	code, body, _ = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome trace: HTTP %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) != len(tl.Spans) || chrome.DisplayTimeUnit != "ms" {
		t.Fatalf("chrome dump: %d events (want %d), unit %q",
			len(chrome.TraceEvents), len(tl.Spans), chrome.DisplayTimeUnit)
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("chrome event %q has phase %q, want X", ev.Name, ev.Ph)
		}
	}

	// Unknown jobs 404; unknown formats 400.
	code, _, _ = getBody(t, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64)+"/trace")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d", code)
	}
	code, _, _ = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?format=yaml")
	if code != http.StatusBadRequest {
		t.Fatalf("bad trace format: HTTP %d", code)
	}
}

// TestHTTPErrors covers the failure surface of the wire protocol.
func TestHTTPErrors(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.1)
	raw := crawlJSONBytes(t, c)
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	svc, ts := startHTTP(t, Config{Workers: 1})
	svc.testBeforeRun = func(*Job) {
		started <- struct{}{}
		<-gate
	}
	defer close(gate)

	expectErr := func(method, url string, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			resp, err = http.Post(url, "application/json", bytes.NewReader(body))
		} else {
			resp, err = http.Get(url)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: decoding error body: %v", method, url, err)
		}
		if resp.StatusCode != wantStatus || e.Code != wantCode {
			t.Fatalf("%s %s: HTTP %d %q, want %d %q", method, url, resp.StatusCode, e.Code, wantStatus, wantCode)
		}
	}

	expectErr(http.MethodPost, ts.URL+"/v1/jobs", []byte("{broken"), http.StatusBadRequest, ErrCodeBadRequest)
	expectErr(http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"seed":1}`), http.StatusBadRequest, ErrCodeBadRequest)
	expectErr(http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"seed":1,"rc":1e30,"crawl":`+string(raw)+`}`), http.StatusBadRequest, ErrCodeBadRequest)
	expectErr(http.MethodGet, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64), nil, http.StatusNotFound, ErrCodeUnknownJob)
	expectErr(http.MethodGet, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64)+"/graph", nil, http.StatusNotFound, ErrCodeUnknownJob)

	// A running job's downloads answer 409 not_ready with a Retry-After.
	code, st := postJob(t, ts.URL, &JobSpec{Seed: 3, RC: 5, Crawl: raw})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	<-started
	graphURL := ts.URL + "/v1/jobs/" + st.ID + "/graph"
	codeG, _, retryAfter := getBody(t, graphURL)
	if codeG != http.StatusConflict || retryAfter == "" {
		t.Fatalf("graph of running job: HTTP %d retry-after %q", codeG, retryAfter)
	}
	expectErr(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/props", nil, http.StatusConflict, ErrCodeNotReady)
	gate <- struct{}{} // release the worker for cleanup
	pollDone(t, ts.URL, st.ID)
	expectErr(http.MethodGet, graphURL+"?format=yaml", nil, http.StatusBadRequest, ErrCodeBadRequest)
}
