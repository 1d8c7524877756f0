package restored

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgr/internal/dkseries"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// testGraphAndCrawl builds a small connected graph and a seeded crawl of
// it — the shared subject of the key and service tests.
func testGraphAndCrawl(t testing.TB, seed uint64, fraction float64) (*graph.Graph, *sampling.Crawl) {
	t.Helper()
	g := gen.HolmeKim(160, 3, 0.5, rand.New(rand.NewPCG(41, 42)))
	c, err := sampling.SeededRandomWalk(sampling.NewGraphAccess(g), -1, fraction, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

// crawlJSONBytes renders a crawl in the canonical wire form.
func crawlJSONBytes(t testing.TB, c *sampling.Crawl) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// journalText renders a crawl as an uploaded oracle crawl-journal body.
func journalText(t testing.TB, c *sampling.Crawl, nodes int) string {
	t.Helper()
	var sb strings.Builder
	writeRec := func(rec map[string]any) {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	writeRec(map[string]any{"t": "h", "version": 1, "nodes": nodes})
	for _, u := range c.Queried {
		writeRec(map[string]any{"t": "q", "u": u, "nb": c.Neighbors[u]})
	}
	writeRec(map[string]any{"t": "w", "walk": c.Walk})
	return sb.String()
}

// mustKey resolves a spec and returns its job key.
func mustKey(t *testing.T, spec *JobSpec) string {
	t.Helper()
	ps, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ps.key
}

// TestCacheKeyCanonicalization is the satellite contract: two submissions
// whose crawls differ only in JSON spelling (whitespace, field order) hash
// identically; any difference in walk content or pipeline options does
// not.
func TestCacheKeyCanonicalization(t *testing.T) {
	g, c := testGraphAndCrawl(t, 5, 0.15)
	canon := crawlJSONBytes(t, c)

	base := &JobSpec{Seed: 3, RC: 5, Crawl: canon}
	baseKey := mustKey(t, base)

	// Equivalent spellings of the same submission.
	var indented bytes.Buffer
	if err := json.Indent(&indented, canon, "", "   "); err != nil {
		t.Fatal(err)
	}
	var asMap map[string]any
	if err := json.Unmarshal(canon, &asMap); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(asMap) // map marshal sorts keys: a new field order
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reordered, canon) {
		t.Fatal("test is vacuous: reordered bytes equal canonical bytes")
	}
	for i, spec := range []*JobSpec{
		{Seed: 3, RC: 5, Crawl: indented.Bytes()},
		{Seed: 3, RC: 5, Crawl: reordered},
		{Seed: 3, RC: 5, Crawl: append([]byte("  "), append(append([]byte(nil), canon...), ' ', '\n')...)},
		{Seed: 3, RC: 5, Method: MethodProposed, Crawl: canon},
		{Seed: 3, RC: 5, Journal: journalText(t, c, g.N())},
	} {
		if got := mustKey(t, spec); got != baseKey {
			t.Errorf("equivalent spelling %d produced a different key", i)
		}
	}

	// Differing submissions. Mutate one walk step to another queried node
	// (the crawl stays structurally valid).
	mutated := *c
	mutated.Walk = append([]int(nil), c.Walk...)
	if len(mutated.Walk) < 2 {
		t.Fatal("walk too short to mutate")
	}
	mutated.Walk[len(mutated.Walk)-1] = mutated.Walk[0]
	mutatedBytes := crawlJSONBytes(t, &mutated)

	differing := map[string]*JobSpec{
		"walk step":         {Seed: 3, RC: 5, Crawl: mutatedBytes},
		"seed":              {Seed: 4, RC: 5, Crawl: canon},
		"rc":                {Seed: 3, RC: 7, Crawl: canon},
		"method":            {Seed: 3, RC: 5, Method: MethodGjoka, Crawl: canon},
		"skip rewiring":     {Seed: 3, RC: 5, SkipRewiring: true, Crawl: canon},
		"forbid degenerate": {Seed: 3, RC: 5, ForbidDegenerate: true, Crawl: canon},
	}
	for name, spec := range differing {
		if got := mustKey(t, spec); got == baseKey {
			t.Errorf("submission differing in %s hashed to the base key", name)
		}
	}

	// The RC default has one identity however it is spelled.
	if mustKey(t, &JobSpec{Seed: 3, Crawl: canon}) != mustKey(t, &JobSpec{Seed: 3, RC: 500, Crawl: canon}) {
		t.Error("omitted RC and explicit default RC produced different keys")
	}
}

// TestTimingFieldsOutsideContentAddress is the observability regression
// gate: the queue_usec/phase_usec timeline fields (and every other
// wall-clock observation) live on JobStatus — the output side of the wire
// protocol — and never reach key canonicalization. Two proofs: the content
// address of a fixed submission is pinned to its pre-observability hex, and
// the JobSpec input schema is checked field-by-field to share no JSON name
// with the status timing fields, so a timing value can never round-trip
// into an input.
func TestTimingFieldsOutsideContentAddress(t *testing.T) {
	_, c := testGraphAndCrawl(t, 5, 0.15)
	spec := &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)}

	// Golden pin: if a clock read (or any new field) sneaks into
	// canonicalization, every cached result silently re-keys — this fails
	// first. The constant was computed before the timing fields existed.
	const golden = "b1b7dc721bd1ffcaa2d7709d4bf0a0c6a637f9b301bf7ea90d39b18cb451e33f"
	if key := mustKey(t, spec); key != golden {
		t.Fatalf("content address drifted: %s, want pinned %s", key, golden)
	}
	// Resolving the identical spec twice (wall-clock time has passed)
	// yields the identical key.
	if again := mustKey(t, spec); again != golden {
		t.Fatalf("second resolution re-keyed to %s", again)
	}
	// timeout_ms is execution policy, not identity: how long a caller is
	// willing to wait must not re-key the work.
	deadlined := &JobSpec{Seed: 3, RC: 5, TimeoutMS: 12345, Crawl: crawlJSONBytes(t, c)}
	if key := mustKey(t, deadlined); key != golden {
		t.Fatalf("timeout_ms entered the content address: %s", key)
	}

	// Schema disjointness: no JobSpec input field may use a timing JSON
	// name, or a copied status could smuggle timings into submissions.
	timingNames := map[string]bool{"queue_usec": true, "phase_usec": true}
	rt := reflect.TypeOf(JobSpec{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if timingNames[tag] {
			t.Errorf("JobSpec field %s uses timing JSON name %q", rt.Field(i).Name, tag)
		}
	}
	// And the status side really does carry them, under exactly these
	// names (omitempty: absent until measured).
	b, err := json.Marshal(JobStatus{ID: "x", QueueUS: 12, PhaseUS: 34})
	if err != nil {
		t.Fatal(err)
	}
	for name := range timingNames {
		if !bytes.Contains(b, []byte(`"`+name+`"`)) {
			t.Errorf("JobStatus JSON missing %q: %s", name, b)
		}
	}
}

// TestGraphdSpecKeys pins the request-keyed identity of server-side crawl
// jobs: transport details (api key, retry bound) do not identify a job,
// the crawl request (url, fraction, start, seed, options) does.
func TestGraphdSpecKeys(t *testing.T) {
	node := 3
	base := &JobSpec{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1}}
	baseKey := mustKey(t, base)
	same := []*JobSpec{
		{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1, APIKey: "k"}},
		{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1, Retries: 4}},
		{Seed: 9, RC: 500, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1}},
	}
	for i, spec := range same {
		if mustKey(t, spec) != baseKey {
			t.Errorf("transport-detail variant %d changed the key", i)
		}
	}
	diff := []*JobSpec{
		{Seed: 9, Graphd: &GraphdSource{URL: "http://y", Fraction: 0.1}},
		{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.2}},
		{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1, SeedNode: &node}},
		{Seed: 8, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1}},
		{Seed: 9, Method: MethodGjoka, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1}},
	}
	for i, spec := range diff {
		if mustKey(t, spec) == baseKey {
			t.Errorf("differing graphd variant %d kept the base key", i)
		}
	}
}

// TestResolveSpecRejects covers submit-time validation.
func TestResolveSpecRejects(t *testing.T) {
	_, c := testGraphAndCrawl(t, 5, 0.1)
	canon := crawlJSONBytes(t, c)
	walkless := &sampling.Crawl{Queried: c.Queried, Neighbors: c.Neighbors}
	walklessBytes := crawlJSONBytes(t, walkless)

	cases := map[string]*JobSpec{
		"no source":          {Seed: 1},
		"two sources":        {Seed: 1, Crawl: canon, Journal: "x"},
		"bad crawl json":     {Seed: 1, Crawl: []byte("{nope")},
		"walkless crawl":     {Seed: 1, Crawl: walklessBytes},
		"bad journal":        {Seed: 1, Journal: "not a journal"},
		"unknown method":     {Seed: 1, Method: "magic", Crawl: canon},
		"graphd without url": {Seed: 1, Graphd: &GraphdSource{Fraction: 0.1}},
		"graphd fraction":    {Seed: 1, Graphd: &GraphdSource{URL: "http://x", Fraction: 1.5}},
		"rc NaN":             {Seed: 1, RC: math.NaN(), Crawl: canon},
		"rc +Inf":            {Seed: 1, RC: math.Inf(1), Crawl: canon},
		"rc -Inf":            {Seed: 1, RC: math.Inf(-1), Crawl: canon},
		"rc 1e30":            {Seed: 1, RC: 1e30, Crawl: canon},
		"rc negative":        {Seed: 1, RC: -1, Crawl: canon},
		"rc past MaxRC":      {Seed: 1, RC: math.Nextafter(dkseries.MaxRC, math.Inf(1)), Crawl: canon},
	}
	for name, spec := range cases {
		if _, err := resolveSpec(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJournalUploadResolvesLikeCrawl proves an uploaded journal and the
// inline crawl JSON of the same crawl are one job identity end to end,
// including the canonical bytes.
func TestJournalUploadResolvesLikeCrawl(t *testing.T) {
	g, c := testGraphAndCrawl(t, 11, 0.12)
	inline, err := resolveSpec(&JobSpec{Seed: 2, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	fromJournal, err := resolveSpec(&JobSpec{Seed: 2, Journal: journalText(t, c, g.N())})
	if err != nil {
		t.Fatal(err)
	}
	if inline.key != fromJournal.key {
		t.Fatal("journal upload and inline crawl resolved to different keys")
	}
	if !bytes.Equal(inline.canon, fromJournal.canon) {
		t.Fatal("journal upload and inline crawl canonicalized differently")
	}
}

// TestJournalUploadParsesInMemory: an uploaded journal is parsed from the
// request bytes, never staged on disk, so it resolves with no usable temp
// directory, to the same key as the crawl sent as crawl JSON.
func TestJournalUploadParsesInMemory(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	g, c := testGraphAndCrawl(t, 11, 0.12)
	inline := mustKey(t, &JobSpec{Seed: 2, Crawl: crawlJSONBytes(t, c)})
	if got := mustKey(t, &JobSpec{Seed: 2, Journal: journalText(t, c, g.N())}); got != inline {
		t.Fatal("journal upload and inline crawl resolved to different keys")
	}
}

// TestKeyLooksLikeSHA256 pins the id format scripts rely on.
func TestKeyLooksLikeSHA256(t *testing.T) {
	_, c := testGraphAndCrawl(t, 5, 0.1)
	key := mustKey(t, &JobSpec{Seed: 1, Crawl: crawlJSONBytes(t, c)})
	if !validKey(key) {
		t.Fatalf("key %q is not 64 lowercase hex chars", key)
	}
	if validKey("../escape") || validKey(strings.Repeat("Z", 64)) {
		t.Fatal("validKey accepted a non-hex key")
	}
}
