package restored

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestWALBytesDigest pins the job WAL's on-disk bytes: the header, an
// accepted crawl job, its finished record and an accepted graphd job as
// written through the append path, then the compacted file a replay
// leaves behind (header plus the one live accepted record), then that
// file after one more append. Each image is hashed with SHA-256.
func TestWALBytesDigest(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	done, err := resolveSpec(&JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := resolveSpec(&JobSpec{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashWAL(t, dir,
		walRecord{T: walTypeAccepted, ID: done.key, Spec: done.walSpec()},
		walRecord{T: walTypeFinished, ID: done.key, State: StateDone},
		walRecord{T: walTypeAccepted, ID: live.key, Spec: live.walSpec()},
	)
	digest := func() string {
		t.Helper()
		data, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	const wantWritten = "22f35fd8c9891f571d5bd53113383a0cc9483b8aa23db352b9fa8d1070321338"
	if got := digest(); got != wantWritten {
		t.Errorf("written wal digest %s, want %s", got, wantWritten)
	}

	w, recs, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if err := w.rewrite(recs[2:]); err != nil {
		t.Fatal(err)
	}
	const wantCompacted = "171205c0ed4b9ae0a6f749a9994b0915038c450a11fb1b4f35f881ddf29db697"
	if got := digest(); got != wantCompacted {
		t.Errorf("compacted wal digest %s, want %s", got, wantCompacted)
	}
	// Appends after compaction land at the end of the rewritten file.
	if err := w.append(walRecord{T: walTypeFinished, ID: live.key, State: StateFailed}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const wantAppended = "8742834cd0eeb63979e95081430799c6b26d028c00132c0ac23e237615adb2bb"
	if got := digest(); got != wantAppended {
		t.Errorf("post-compaction wal digest %s, want %s", got, wantAppended)
	}
}
