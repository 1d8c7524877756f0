package applog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// decodeOK accepts any line except one reading "bad".
func decodeOK(_ int, line []byte) error {
	if string(line) == "bad" {
		return errors.New("bad record")
	}
	return nil
}

// TestReplayTornTailRule pins the one torn-tail rule on every shape that
// decides it: only damage in the last record, after an intact header,
// is a tear.
func TestReplayTornTailRule(t *testing.T) {
	for _, c := range []struct {
		name, data string
		end        int // -1: refused
	}{
		{"empty", "", 0},
		{"intact", "h\na\nb\n", 6},
		{"unterminated tail", "h\na\nb", 4},
		{"damaged final record", "h\na\nbad\n", 4},
		{"damaged final record, unterminated", "h\na\nbad", 4},
		{"damage followed by a record", "h\nbad\nb\n", -1},
		{"damage followed by a partial line", "h\nbad\nb", -1},
		{"damaged header", "bad\n", -1},
		{"unterminated header", "h", -1},
		{"damaged header before records", "bad\na\n", -1},
	} {
		end, err := Replay([]byte(c.data), decodeOK)
		if c.end < 0 {
			if err == nil {
				t.Errorf("%s: accepted, want refused", c.name)
			}
			continue
		}
		if err != nil || end != c.end {
			t.Errorf("%s: end %d err %v, want end %d", c.name, end, err, c.end)
		}
	}
}

// TestOpenTruncatesAndResumes: Open stamps a fresh log, truncates a torn
// tail before resuming appends, and leaves a refused log untouched.
func TestOpenTruncatesAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, []byte("h\n"), decodeOK)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("a\n")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(path, []byte("h\na\nbad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path, []byte("h\n"), decodeOK)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("b\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, _ := os.ReadFile(path); string(got) != "h\na\nb\n" {
		t.Fatalf("resumed log = %q", got)
	}

	refused := []byte("h\nbad\nb\n")
	if err := os.WriteFile(path, refused, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, []byte("h\n"), decodeOK); err == nil {
		t.Fatal("interior damage opened")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, refused) {
		t.Fatalf("refused log modified: %q", got)
	}
}
