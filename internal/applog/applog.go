// Package applog is the crash-safe append-only record log under the
// oracle crawl journal and restored's job WAL. A log is a file of
// newline-terminated records whose first record is a header; what a
// record says, and how a line decodes, belongs to the caller, which
// hands Replay or Open a decoder and Append its rendered lines.
//
// One torn-tail rule serves every log. A record that fails to decode (or
// a final segment with no newline, which no completed Append leaves) is
// a torn tail only if it is the last record and an intact header
// precedes it: the shape a process killed mid-append leaves. Open
// truncates it and read-only replays ignore it. Damage followed by any
// byte, or a damaged or missing header, is corruption: it is refused and
// the file is left untouched, because silently dropping interior records
// would silently drop paid queries or accepted jobs, and a file that
// never was a log must not be truncated.
//
// Append does not fsync. A caller that needs a record on stable storage
// before it acts on it calls Sync: the job WAL does after every append,
// the crawl journal never does (a lost tail only re-spends queries).
package applog

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// errUnterminated marks a final segment without its newline.
var errUnterminated = errors.New("unterminated record")

// Replay hands each record of data to decode in order, as its index
// (0 is the header) and its line without the newline, and returns the
// byte offset the intact prefix ends at. A torn tail stops replay with
// a nil error and end < len(data); any other decode failure is returned
// as the error. Empty data is an empty log: end 0, no decode call.
func Replay(data []byte, decode func(i int, line []byte) error) (end int, err error) {
	for i := 0; end < len(data); i++ {
		rest := data[end:]
		nl := bytes.IndexByte(rest, '\n')
		derr := errUnterminated
		if nl >= 0 {
			derr = decode(i, rest[:nl])
		}
		if derr != nil {
			if i > 0 && (nl < 0 || end+nl+1 == len(data)) {
				return end, nil // torn tail
			}
			return end, fmt.Errorf("line %d (byte %d): %w", i+1, end, derr)
		}
		end += nl + 1
	}
	return end, nil
}

// Log is an open record log: an append-only file whose appends land
// after its last intact record.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Open opens the log at path, creating it if absent, and replays it
// through decode. A torn tail is truncated away; an empty file gets
// header (one rendered line, newline included) as its first record. A
// log Replay refuses is returned as the error, untouched.
func Open(path string, header []byte, decode func(i int, line []byte) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	end, err := Replay(data, decode)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, err
	}
	if end == 0 {
		if err := l.Append(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append writes one rendered record line, newline included, in a single
// write, so concurrent appends never interleave.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(line)
	return err
}

// Sync commits every completed Append to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Rewrite replaces the whole log with data (header first) atomically:
// write a temp file, fsync, rename over the log, and append to the new
// file from then on. It must not race appends.
func (l *Log) Rewrite(data []byte) error {
	tmp := l.path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return err
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.f
	l.f = nf
	return old.Close()
}

// writeSynced writes data to a fresh file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
