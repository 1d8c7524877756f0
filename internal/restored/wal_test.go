package restored

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// crashWAL simulates the journal a killed daemon leaves behind: a header
// plus the given records, written through the real append path (CRC
// framing, fsync) and then abandoned without any shutdown bookkeeping.
func crashWAL(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	w, existing, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(existing) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(existing))
	}
	for _, rec := range recs {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayRunsAcceptedJob is the crash-recovery contract: a job whose
// accepted record survived a crash is re-enqueued on startup, runs to
// completion, and produces bytes identical to the offline pipeline — and a
// second restart does not run it again, because the result cache now
// answers for the id.
func TestWALReplayRunsAcceptedJob(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	_, offlineBin := offlineRestore(t, c, 5, 3)
	spec := &JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)}
	ps, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashWAL(t, dir, walRecord{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()})

	svc := newTestService(t, Config{CacheDir: dir})
	job, ok := svc.Job(ps.key)
	if !ok {
		t.Fatal("accepted job was not replayed from the wal")
	}
	if got := svc.replayed.Value(); got != 1 {
		t.Fatalf("replayed counter = %d, want 1", got)
	}
	res := waitDone(t, job)
	if !bytes.Equal(res.GraphBin, offlineBin) {
		t.Fatal("replayed job's graph differs from the offline restore")
	}
	svc.Close()

	// Second restart: the terminal record (and the cache) make replay a
	// no-op, and a resubmission is a pipeline-free cache hit.
	svc2 := newTestService(t, Config{CacheDir: dir})
	if _, ok := svc2.Job(ps.key); ok {
		t.Fatal("finished job was replayed again")
	}
	if got := svc2.replayed.Value(); got != 0 {
		t.Fatalf("second-start replayed counter = %d, want 0", got)
	}
	job2, existing, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("resubmission matched a job in the fresh table")
	}
	res2 := waitDone(t, job2)
	if !bytes.Equal(res2.GraphBin, res.GraphBin) {
		t.Fatal("post-restart resubmission differs from the recovered result")
	}
	if got := svc2.PipelineRuns(); got != 0 {
		t.Fatalf("resubmission ran the pipeline %d time(s), want cache hit", got)
	}
}

// TestWALReplaySkipsSettledAndCorrupt: terminal records suppress replay,
// and an accepted record whose spec does not re-resolve to its recorded id
// is dropped — never run as the wrong job.
func TestWALReplaySkipsSettledAndCorrupt(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	ps, err := resolveSpec(&JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]walRecord{
		"done": {
			{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()},
			{T: walTypeFinished, ID: ps.key, State: StateDone},
		},
		"cancelled": {
			{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()},
			{T: walTypeFinished, ID: ps.key, State: StateCancelled},
		},
		"key mismatch": {
			{T: walTypeAccepted, ID: "00" + ps.key[2:], Spec: ps.walSpec()},
		},
		"no spec": {
			{T: walTypeAccepted, ID: ps.key},
		},
	} {
		dir := t.TempDir()
		crashWAL(t, dir, recs...)
		svc := newTestService(t, Config{CacheDir: dir})
		if got := svc.replayed.Value(); got != 0 {
			t.Errorf("%s: replayed %d job(s), want 0", name, got)
		}
		svc.Close()
	}
}

// TestWALTornTail pins the torn-tail policy shared with the oracle crawl
// journal: a crash mid-append may leave a damaged final record, which is
// tolerated and truncated away; damage anywhere earlier is corruption and
// errors out.
func TestWALTornTail(t *testing.T) {
	ps, err := resolveSpec(&JobSpec{Seed: 3, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := walRecord{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()}

	intact := func(t *testing.T) ([]byte, string) {
		dir := t.TempDir()
		crashWAL(t, dir, rec, rec)
		data, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return data, dir
	}

	t.Run("unterminated tail", func(t *testing.T) {
		data, dir := intact(t)
		if err := os.WriteFile(walPath(dir), append(data, []byte("deadbeef {half a rec")...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(walPath(dir))
		if err != nil {
			t.Fatalf("torn tail rejected: %v", err)
		}
		defer w.Close()
		if len(recs) != 2 {
			t.Fatalf("replayed %d records, want the 2 intact ones", len(recs))
		}
		// The tear is truncated, so the journal is appendable again.
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, data) || bytes.Contains(after, []byte("half a rec")) {
			t.Fatal("torn tail survived reopen")
		}
	})

	t.Run("corrupt final record", func(t *testing.T) {
		data, dir := intact(t)
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-2] ^= 0x01 // damage the last record's payload
		if err := os.WriteFile(walPath(dir), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(walPath(dir))
		if err != nil {
			t.Fatalf("damaged final record rejected: %v", err)
		}
		w.Close()
		if len(recs) != 1 {
			t.Fatalf("replayed %d records, want 1 (the intact prefix)", len(recs))
		}
	})

	t.Run("interior corruption", func(t *testing.T) {
		data, dir := intact(t)
		// Damage the FIRST accepted record: content follows, so this is
		// not a tear.
		lines := bytes.SplitAfter(data, []byte("\n"))
		lines[1][len(lines[1])-2] ^= 0x01
		if err := os.WriteFile(walPath(dir), bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWAL(walPath(dir)); err == nil {
			t.Fatal("interior corruption tolerated")
		}
	})

	t.Run("damaged header", func(t *testing.T) {
		// A header is never a torn tail: a file whose only record is a
		// damaged header is refused and left byte-identical, not
		// truncated and re-stamped over.
		dir := t.TempDir()
		line, err := appendWALLine(nil, walRecord{T: walTypeHeader, Version: walVersion})
		if err != nil {
			t.Fatal(err)
		}
		line[len(line)-2] ^= 0x01
		if err := os.WriteFile(walPath(dir), line, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWAL(walPath(dir)); err == nil {
			t.Fatal("damaged header accepted")
		}
		after, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, line) {
			t.Fatalf("refused wal was modified: %q", after)
		}
	})

	t.Run("version mismatch", func(t *testing.T) {
		dir := t.TempDir()
		line, err := appendWALLine(nil, walRecord{T: walTypeHeader, Version: walVersion + 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir), line, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWAL(walPath(dir)); err == nil {
			t.Fatal("future-version wal accepted")
		}
	})
}

// TestWALCompaction: startup rewrites the journal down to the live
// backlog, so settled jobs stop being re-parsed forever.
func TestWALCompaction(t *testing.T) {
	_, c := testGraphAndCrawl(t, 3, 0.15)
	ps, err := resolveSpec(&JobSpec{Seed: 3, RC: 5, Crawl: crawlJSONBytes(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashWAL(t, dir,
		walRecord{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()},
		walRecord{T: walTypeFinished, ID: ps.key, State: StateFailed},
		walRecord{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()},
	)
	svc := newTestService(t, Config{CacheDir: dir})
	if got := svc.replayed.Value(); got != 1 {
		t.Fatalf("replayed %d job(s), want 1 (re-accepted after failure)", got)
	}
	waitDone(t, mustJob(t, svc, ps.key))
	svc.Close()

	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, goodEnd, err := parseWAL(data)
	if err != nil || goodEnd != len(data) {
		t.Fatalf("compacted wal damaged: goodEnd=%d len=%d err=%v", goodEnd, len(data), err)
	}
	// header + compacted accepted + the run's terminal record.
	if len(recs) != 3 || recs[1].T != walTypeAccepted || recs[2].T != walTypeFinished {
		t.Fatalf("compacted wal shape: %+v", recs)
	}
}

// mustJob looks up a job the test knows exists.
func mustJob(t *testing.T, svc *Service, id string) *Job {
	t.Helper()
	j, ok := svc.Job(id)
	if !ok {
		t.Fatalf("job %s not in table", shortKey(id))
	}
	return j
}

// FuzzJobJournal hammers parseWAL with arbitrary bytes: it must never
// panic, never claim an intact prefix longer than the input, and always
// tolerate a re-append after truncation (the recovery path a real torn
// journal takes).
func FuzzJobJournal(f *testing.F) {
	ps, err := resolveSpec(&JobSpec{Seed: 9, Graphd: &GraphdSource{URL: "http://x", Fraction: 0.2}})
	if err != nil {
		f.Fatal(err)
	}
	var seed []byte
	for _, rec := range []walRecord{
		{T: walTypeHeader, Version: walVersion},
		{T: walTypeAccepted, ID: ps.key, Spec: ps.walSpec()},
		{T: walTypeFinished, ID: ps.key, State: StateDone},
	} {
		if seed, err = appendWALLine(seed, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                      // torn tail
	f.Add([]byte(nil))                             // empty journal
	f.Add([]byte("deadbeef {}\n"))                 // bad checksum
	f.Add(bytes.Repeat([]byte("00000000 \n"), 40)) // framing edge

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodEnd, err := parseWAL(data)
		if goodEnd < 0 || goodEnd > len(data) {
			t.Fatalf("goodEnd %d out of [0,%d]", goodEnd, len(data))
		}
		if err != nil {
			return
		}
		if len(recs) > 0 && recs[0].T != walTypeHeader {
			t.Fatal("parsed journal does not start with a header")
		}
		// The intact prefix must re-parse to the same records with no
		// torn tail — parseWAL is a fixed point on its own output.
		again, end2, err2 := parseWAL(data[:goodEnd])
		if err2 != nil || end2 != goodEnd || len(again) != len(recs) {
			t.Fatalf("intact prefix re-parse: %d recs end %d err %v, want %d recs end %d",
				len(again), end2, err2, len(recs), goodEnd)
		}
		// And a real reopen of those bytes truncates + appends cleanly.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, _, err := openWAL(walPath(dir))
		if err != nil {
			return // interior corruption: rejecting is the contract
		}
		defer w.Close()
		if err := w.append(walRecord{T: walTypeFinished, ID: "x", State: StateDone}); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, end3, err3 := parseWAL(after); err3 != nil || end3 != len(after) {
			t.Fatalf("journal damaged after reopen+append: end %d/%d err %v", end3, len(after), err3)
		}
	})
}
