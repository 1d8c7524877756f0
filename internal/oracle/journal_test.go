package oracle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgr/internal/sampling"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "crawl.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, entries, walk, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if entries != nil || walk != nil {
		t.Fatal("fresh journal must replay nothing")
	}
	if err := j.Append(4, []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(9, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendWalk([]int{4, 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, walk, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if entries[0].U != 4 || len(entries[0].Neighbors) != 3 || entries[0].Private {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].U != 9 || entries[1].Neighbors != nil || !entries[1].Private {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
	if len(walk) != 2 || walk[0] != 4 || walk[1] != 1 {
		t.Fatalf("walk = %v", walk)
	}
}

func TestJournalRejectsWrongGraph(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, _, err := OpenJournal(path, 101); err == nil {
		t.Fatal("journal for 100 nodes must not open against 101")
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(4, []int{1, 2}, false)
	j.Close()
	// Simulate a crash mid-append: a torn, newline-less final record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"q","u":7,"nb":[1,`)
	f.Close()

	j2, entries, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(entries) != 1 || entries[0].U != 4 {
		t.Fatalf("entries = %+v, want just node 4", entries)
	}
	// The torn bytes are gone: appends resume on a clean line.
	if err := j2.Append(7, []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, entries, _, err = OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].U != 7 {
		t.Fatalf("after repair, entries = %+v", entries)
	}
}

// TestJournalTruncatesDamagedFinalRecord: a damaged final record is a
// torn tail even when its newline made it to disk, so the journal opens,
// drops it and resumes appending.
func TestJournalTruncatesDamagedFinalRecord(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(4, []int{1, 2}, false)
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(intact, "{\"t\":\"q\",\"u\":7,\"nb\":[1,\x00\n"...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, entries, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatalf("damaged final record must be a torn tail: %v", err)
	}
	if len(entries) != 1 || entries[0].U != 4 {
		t.Fatalf("entries = %+v, want just node 4", entries)
	}
	if err := j2.Append(7, []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(intact) + `{"t":"q","u":7,"nb":[1,2,3]}` + "\n"; string(after) != want {
		t.Fatalf("resumed journal = %q, want %q", after, want)
	}
}

// TestJournalRefusesNonJournalFile: torn-tail tolerance must never
// truncate a file that was never a journal — a wrong -journal path is a
// user error, not recoverable corruption.
func TestJournalRefusesNonJournalFile(t *testing.T) {
	path := journalPath(t)
	content := []byte("my important notes, no trailing newline")
	os.WriteFile(path, content, 0o644)
	if _, _, _, err := OpenJournal(path, 100); err == nil {
		t.Fatal("non-journal file must not open as a journal")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatalf("OpenJournal modified a non-journal file: %q", after)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, _ := os.ReadFile(path)
	raw = append(raw, []byte("not json\n")...)
	raw = append(raw, []byte(`{"t":"q","u":1,"nb":[2]}`+"\n")...)
	os.WriteFile(path, raw, 0o644)
	if _, _, _, err := OpenJournal(path, 100); err == nil {
		t.Fatal("newline-terminated corruption before valid records must fail")
	}
}

// TestJournalResume is the budget guarantee: rerunning an interrupted
// crawl with the same seed replays the journaled prefix for free and only
// fetches the tail over the wire.
func TestJournalResume(t *testing.T) {
	g := testGraph(t)
	srv, ts := startServer(t, g, ServerConfig{})
	path := journalPath(t)

	// First run: crawl a shorter prefix of the same seeded walk, as if
	// killed partway. (Same seed + shorter fraction = prefix, because the
	// walk consumes the RNG identically step by step.)
	c1 := fastClient(t, ts, func(c *ClientConfig) { c.JournalPath = path })
	prefix, err := sampling.RandomWalk(c1, 17, 0.05, walkRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	spent1 := c1.NodesFetched()
	if spent1 == 0 || int(spent1) != prefix.NumQueried() {
		t.Fatalf("first run fetched %d nodes for %d queries", spent1, prefix.NumQueried())
	}
	c1.Close()

	// Resume: same seed, full fraction. The prefix must come from the
	// journal — the server sees only the tail.
	servedBefore := srv.QueriesServed()
	c2 := fastClient(t, ts, func(c *ClientConfig) { c.JournalPath = path })
	full, err := sampling.RandomWalk(c2, 17, 0.15, walkRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.NodesFetched(); got != int64(full.NumQueried())-spent1 {
		t.Fatalf("resume fetched %d nodes, want %d (total %d - journaled %d)",
			got, int64(full.NumQueried())-spent1, full.NumQueried(), spent1)
	}
	if tail := srv.QueriesServed() - servedBefore; tail != c2.NodesFetched() {
		t.Fatalf("server served %d queries on resume, client says %d", tail, c2.NodesFetched())
	}

	// The resumed crawl is byte-identical to a fresh in-memory one.
	local, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 17, 0.15, walkRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crawlJSON(t, full), crawlJSON(t, local)) {
		t.Fatal("resumed crawl diverges from in-memory crawl")
	}

	// Record the walk and reload the journal as a self-contained crawl.
	if err := c2.RecordWalk(full.Walk); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	loaded, err := LoadCrawlFromJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crawlJSON(t, loaded), crawlJSON(t, full)) {
		t.Fatal("journal-loaded crawl diverges from the live crawl")
	}
}

// TestJournalStaleWalkInvalidated: a walk record only describes the crawl
// if no queries follow it — a longer resumed crawl that was interrupted
// must not serve the earlier, shorter crawl's walk as complete.
func TestJournalStaleWalkInvalidated(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(1, []int{2}, false)
	j.AppendWalk([]int{1})
	j.Append(2, []int{1}, false) // resumed past the completed crawl, killed
	j.Close()

	_, _, walk, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if walk != nil {
		t.Fatalf("stale walk %v survived a later query record", walk)
	}
	c, err := LoadCrawlFromJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Walk) != 0 {
		t.Fatalf("loaded crawl has stale walk %v", c.Walk)
	}
	// A fresh walk record after the tail queries makes it whole again.
	j2, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	j2.AppendWalk([]int{1, 2})
	j2.Close()
	c, err = LoadCrawlFromJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Walk) != 2 {
		t.Fatalf("walk = %v, want [1 2]", c.Walk)
	}
}

func TestLoadCrawlFromJournalErrors(t *testing.T) {
	if _, err := LoadCrawlFromJournal(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing journal must fail")
	}
	path := journalPath(t)
	os.WriteFile(path, []byte(`{"t":"q","u":1,"nb":[2]}`+"\n"), 0o644)
	if _, err := LoadCrawlFromJournal(path); err == nil {
		t.Fatal("journal without header must fail")
	}
	// Walk referencing an unjournaled node is inconsistent.
	os.WriteFile(path, []byte(
		`{"t":"h","version":1,"nodes":10}`+"\n"+
			`{"t":"q","u":1,"nb":[2]}`+"\n"+
			`{"t":"w","walk":[1,2]}`+"\n"), 0o644)
	if _, err := LoadCrawlFromJournal(path); err == nil {
		t.Fatal("walk through unjournaled node must fail")
	}
	// The same invariants as sampling.ReadCrawlJSON: no negative ids.
	os.WriteFile(path, []byte(
		`{"t":"h","version":1,"nodes":10}`+"\n"+
			`{"t":"q","u":-4,"nb":[2]}`+"\n"), 0o644)
	if _, err := LoadCrawlFromJournal(path); err == nil {
		t.Fatal("negative journaled node id must fail")
	}
	os.WriteFile(path, []byte(
		`{"t":"h","version":1,"nodes":10}`+"\n"+
			`{"t":"q","u":4,"nb":[-2]}`+"\n"), 0o644)
	if _, err := LoadCrawlFromJournal(path); err == nil {
		t.Fatal("negative journaled neighbor id must fail")
	}
}

// TestJournalConcurrentAppend exercises the journal's lock under the
// in-flight dedup cache's worst case: many goroutines finishing fetches.
func TestJournalConcurrentAppend(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, g, ServerConfig{})
	path := journalPath(t)
	client := fastClient(t, ts, func(c *ClientConfig) { c.JournalPath = path })

	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for u := w; u < 200; u += 8 {
				client.NeighborsOf(u)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent journaled crawl wedged")
		}
	}
	client.Close()
	_, entries, _, err := OpenJournal(path, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 200 {
		t.Fatalf("journaled %d entries, want 200", len(entries))
	}
}
