package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestJournalBytesDigest pins the crawl journal's on-disk bytes: a fresh
// OpenJournal (header), answered queries including a private node, and
// the completed walk, hashed with SHA-256. Any change to the line format,
// record order or field spelling breaks every journal already on disk.
func TestJournalBytesDigest(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		u       int
		nb      []int
		private bool
	}{
		{4, []int{1, 2, 3}, false},
		{9, nil, true},
		{1, []int{4}, false},
		{2, []int{}, false},
	} {
		if err := j.Append(q.u, q.nb, q.private); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendWalk([]int{4, 1, 4, 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "74151ea20a4c9f63b89a2387c5d01254297e68004dcb2df93cecd47501460896"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("journal digest %s, want %s\n%s", got, want, data)
	}
}
