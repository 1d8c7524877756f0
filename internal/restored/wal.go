package restored

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"sgr/internal/applog"
)

// The job WAL makes accepted work durable: every submission is appended
// to a write-ahead journal under CacheDir *before* it becomes runnable,
// and every terminal transition (done, failed, cancelled) appends a
// tombstone. A daemon killed mid-pipeline therefore loses nothing — on
// startup the journal is replayed, ids already answered by the result
// cache are skipped, and the rest re-enqueue. Replay is idempotent by
// construction: the recorded id IS the content address, and a replayed
// spec re-resolves to the same id or is rejected as corrupt.
//
// Format: JSON lines, each prefixed by the IEEE CRC32 of its payload in
// fixed-width hex — "crc32hex payload\n". The first record is a header
// pinning the format version. The file mechanics, and the torn-tail rule
// shared with the oracle crawl journal, are package applog's: a damaged
// final record after an intact header (the crash-mid-append case) is
// truncated away; damage anywhere earlier, or a damaged header, is a hard
// error, because silently dropping interior records would silently drop
// accepted jobs.
//
// Everything in the WAL is recovery bookkeeping — wall-clock-only state.
// Nothing here feeds the content address: the id stored in a record was
// computed by resolveSpec before the WAL ever saw the job, and replay
// re-derives it from the spec alone (TestTimingFieldsOutsideContentAddress
// pins the schema split).

// walName is the journal's filename under Config.CacheDir.
const walName = "jobs.wal"

// walVersion stamps the record format. Bump on incompatible changes; a
// mismatched journal is rejected, not misread.
const walVersion = 1

// WAL record types.
const (
	walTypeHeader   = "h"
	walTypeAccepted = "a"
	walTypeFinished = "f"
)

// walRecord is one journal line. Exactly one shape per type:
// header {t, version}; accepted {t, id, spec}; finished {t, id, state}.
type walRecord struct {
	T       string `json:"t"`
	Version int    `json:"version,omitempty"`
	ID      string `json:"id,omitempty"`
	// State is the terminal state of a finished record: StateDone,
	// StateFailed or StateCancelled. Failed and cancelled tombstones keep
	// crashed retries honest: a job the operator cancelled must not rise
	// from the dead on restart.
	State string `json:"state,omitempty"`
	// Spec is the accepted submission, normalized: crawl bytes canonical,
	// method and rc resolved. Replaying it through resolveSpec must
	// reproduce ID exactly — that equality is checked, so a corrupted or
	// stale record can only be skipped, never run as the wrong job.
	Spec *JobSpec `json:"spec,omitempty"`
}

// appendWALLine renders one record line: crc32hex, space, payload, \n.
func appendWALLine(b []byte, rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	b = fmt.Appendf(b, "%08x ", crc32.ChecksumIEEE(payload))
	b = append(b, payload...)
	return append(b, '\n'), nil
}

// decodeWALLine parses one journal line (without its trailing newline).
func decodeWALLine(line []byte) (walRecord, error) {
	var rec walRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("malformed record framing")
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return rec, fmt.Errorf("malformed checksum: %v", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return rec, fmt.Errorf("checksum mismatch: recorded %08x, computed %08x", sum, got)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("decoding record: %v", err)
	}
	switch rec.T {
	case walTypeHeader, walTypeAccepted, walTypeFinished:
		return rec, nil
	default:
		return rec, fmt.Errorf("unknown record type %q", rec.T)
	}
}

// walDecoder decodes WAL lines for applog, appending every record,
// header included, to recs. The first record must be a header of the
// current version.
func walDecoder(recs *[]walRecord) func(i int, line []byte) error {
	return func(i int, line []byte) error {
		rec, err := decodeWALLine(line)
		if err != nil {
			return err
		}
		if i == 0 {
			if rec.T != walTypeHeader {
				return fmt.Errorf("wal does not start with a header record")
			}
			if rec.Version != walVersion {
				return fmt.Errorf("wal version %d, want %d", rec.Version, walVersion)
			}
		}
		*recs = append(*recs, rec)
		return nil
	}
}

// parseWAL replays a journal image under applog's torn-tail rule: the
// records of the intact prefix, header included, and the byte offset
// that prefix ends at.
func parseWAL(data []byte) (recs []walRecord, goodEnd int, err error) {
	goodEnd, err = applog.Replay(data, walDecoder(&recs))
	if err != nil {
		return nil, goodEnd, fmt.Errorf("restored: wal: %w", err)
	}
	return recs, goodEnd, nil
}

// walJournal is the open journal: an append-only log whose every record
// is CRC-framed and fsynced before the job it records becomes runnable.
type walJournal struct {
	log *applog.Log
}

// openWAL opens (creating if absent) the journal at path, replays it, and
// truncates a torn tail so appends continue from the last intact record.
// The returned records exclude the header.
func openWAL(path string) (*walJournal, []walRecord, error) {
	header, err := appendWALLine(nil, walRecord{T: walTypeHeader, Version: walVersion})
	if err != nil {
		return nil, nil, err
	}
	var recs []walRecord
	log, err := applog.Open(path, header, walDecoder(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("restored: wal: %w", err)
	}
	if err := log.Sync(); err != nil { // a freshly stamped header
		log.Close()
		return nil, nil, err
	}
	if len(recs) > 0 {
		recs = recs[1:] // the header
	}
	return &walJournal{log: log}, recs, nil
}

// append writes one record and syncs it to stable storage. Durability
// before visibility: Submit calls this before the job can reach a worker,
// so a job that might produce a terminal record always has its accepted
// record on disk first.
func (w *walJournal) append(rec walRecord) error {
	line, err := appendWALLine(nil, rec)
	if err != nil {
		return err
	}
	if err := w.log.Append(line); err != nil {
		return err
	}
	return w.log.Sync()
}

// rewrite compacts the journal to a header plus recs, atomically. Called
// at startup after replay, when every record for a finished job is dead
// weight; must not race appends.
func (w *walJournal) rewrite(recs []walRecord) error {
	buf, err := appendWALLine(nil, walRecord{T: walTypeHeader, Version: walVersion})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if buf, err = appendWALLine(buf, rec); err != nil {
			return err
		}
	}
	return w.log.Rewrite(buf)
}

// Close releases the journal file.
func (w *walJournal) Close() error { return w.log.Close() }

// walPath locates the journal under a cache dir.
func walPath(cacheDir string) string { return filepath.Join(cacheDir, walName) }
