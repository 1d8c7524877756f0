package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"sgr/internal/applog"
	"sgr/internal/sampling"
)

// journalFormatVersion is the on-disk crawl-journal format.
const journalFormatVersion = 1

// journalRecord is one JSON line of a crawl journal. Type discriminates:
// "h" header (first line), "q" one answered neighbor query, "w" the
// completed walk sequence appended by the crawler when it finishes.
type journalRecord struct {
	Type      string `json:"t"`
	Version   int    `json:"version,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	U         int    `json:"u,omitempty"`
	Neighbors []int  `json:"nb,omitempty"`
	Private   bool   `json:"private,omitempty"`
	Walk      []int  `json:"walk,omitempty"`
}

// JournalEntry is one replayed neighbor query: the answer the remote API
// gave for node U (Neighbors nil and Private true for hidden profiles).
type JournalEntry struct {
	U         int
	Neighbors []int
	Private   bool
}

// Journal is an append-only JSON-lines log of every answered API query.
// Each answer is persisted before it is handed to the crawler, so a crawl
// killed at any point resumes from the journal without re-spending the
// queries already paid for: rerunning the same seeded crawl replays the
// journaled prefix from cache and only goes back on the wire for the tail.
// Appends are not fsynced: a tail lost to a machine crash only re-spends
// its queries.
type Journal struct {
	log *applog.Log
}

// OpenJournal opens (or creates) the journal at path for a graph of the
// given node count, returning the replayed entries and the recorded walk
// (nil unless a prior crawl completed). A journal written against a
// different node count is rejected — it belongs to a different graph. A
// torn final record (crawler killed mid-write) is truncated away;
// corruption anywhere else, or a file that does not start with a journal
// header, is an error and the file is left as it was.
func OpenJournal(path string, nodes int) (*Journal, []JournalEntry, []int, error) {
	header, err := journalLine(journalRecord{Type: "h", Version: journalFormatVersion, Nodes: nodes})
	if err != nil {
		return nil, nil, nil, err
	}
	r := journalReplay{nodes: nodes}
	log, err := applog.Open(path, header, r.decode)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("oracle: journal %s: %w", path, err)
	}
	return &Journal{log: log}, r.entries, r.walk, nil
}

// journalLine renders one record as its JSON line.
func journalLine(rec journalRecord) ([]byte, error) {
	buf, err := json.Marshal(rec)
	return append(buf, '\n'), err
}

// journalReplay decodes journal lines for applog: it validates the
// header against nodes (any count when nodes < 0) and collects the
// entries and the last walk that no later query invalidated.
type journalReplay struct {
	nodes   int
	entries []JournalEntry
	walk    []int
}

func (r *journalReplay) decode(i int, line []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("not a crawl journal: %w", err)
	}
	if i == 0 && rec.Type != "h" {
		return errors.New("missing header line")
	}
	switch rec.Type {
	case "h":
		if i != 0 {
			return errors.New("unexpected header")
		}
		if rec.Version != journalFormatVersion {
			return fmt.Errorf("unsupported journal version %d", rec.Version)
		}
		if r.nodes >= 0 && rec.Nodes != r.nodes {
			return fmt.Errorf("journal is for a graph with %d nodes, server has %d", rec.Nodes, r.nodes)
		}
	case "q":
		r.entries = append(r.entries, JournalEntry{U: rec.U, Neighbors: rec.Neighbors, Private: rec.Private})
		// A query after a walk record means a longer crawl resumed
		// past a completed shorter one and was interrupted: the old
		// walk no longer describes the journal's full query set, so
		// it must not be served as a finished crawl.
		r.walk = nil
	case "w":
		r.walk = rec.Walk
	case "":
		return errors.New("not a crawl journal: missing record type")
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// Append records one answered neighbor query.
func (j *Journal) Append(u int, neighbors []int, private bool) error {
	return j.append(journalRecord{Type: "q", U: u, Neighbors: neighbors, Private: private})
}

// AppendWalk records the completed walk sequence, making the journal a
// self-contained crawl that LoadCrawlFromJournal (and restore -journal)
// can consume offline.
func (j *Journal) AppendWalk(walk []int) error {
	return j.append(journalRecord{Type: "w", Walk: walk})
}

func (j *Journal) append(rec journalRecord) error {
	line, err := journalLine(rec)
	if err != nil {
		return err
	}
	return j.log.Append(line)
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// LoadCrawlFromJournal reads the crawl journal at path and reconstructs
// its crawl with ParseCrawlJournal.
func LoadCrawlFromJournal(path string) (*sampling.Crawl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := ParseCrawlJournal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// ParseCrawlJournal reconstructs a sampling.Crawl from a crawl journal's
// bytes: queried nodes in journal (= first-query) order, their neighbor
// lists, and the walk sequence if the crawl completed. The header's node
// count is not checked, and a torn final record is ignored. The result
// round-trips through the same restoration pipeline as a crawl JSON file.
func ParseCrawlJournal(data []byte) (*sampling.Crawl, error) {
	r := journalReplay{nodes: -1}
	if _, err := applog.Replay(data, r.decode); err != nil {
		return nil, fmt.Errorf("oracle: journal: %w", err)
	}
	if len(data) == 0 {
		return nil, errors.New("oracle: journal: empty journal")
	}
	queried := make([]int, len(r.entries))
	neighbors := make([][]int, len(r.entries))
	for i, e := range r.entries {
		queried[i] = e.U
		neighbors[i] = e.Neighbors
	}
	// sampling.NewCrawl is the shared validator, so journals and crawl
	// JSON files accept exactly the same shapes.
	c, err := sampling.NewCrawl(queried, neighbors, r.walk)
	if err != nil {
		return nil, fmt.Errorf("oracle: journal: %w", err)
	}
	return c, nil
}
