package sampling

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// crawlJSON is the stable on-disk form of a Crawl. Real crawls are
// expensive (each query costs API budget and time), so persisting the
// sampling list L and re-running restoration offline is the normal
// workflow.
type crawlJSON struct {
	Version   int     `json:"version"`
	Queried   []int   `json:"queried"`
	Neighbors [][]int `json:"neighbors"` // parallel to Queried
	Walk      []int   `json:"walk,omitempty"`
}

const crawlFormatVersion = 1

// WriteJSON serializes the crawl.
func (c *Crawl) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(crawlJSON{
		Version:   crawlFormatVersion,
		Queried:   c.queried,
		Neighbors: c.lists,
		Walk:      c.walk,
	})
}

// ReadCrawlJSON deserializes a crawl written by WriteJSON, validating its
// internal consistency (walk nodes must be queried, lists must align).
func ReadCrawlJSON(r io.Reader) (*Crawl, error) {
	var in crawlJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("sampling: decoding crawl: %w", err)
	}
	if in.Version != crawlFormatVersion {
		return nil, fmt.Errorf("sampling: unsupported crawl format version %d", in.Version)
	}
	return NewCrawl(in.Queried, in.Neighbors, in.Walk)
}

// NewCrawl assembles a Crawl from parallel queried/neighbor-list slices
// plus an optional walk, enforcing every Crawl invariant: list lengths
// align, node and neighbor ids are non-negative, no node is queried
// twice, and the walk only visits queried nodes. It is the only Crawl
// constructor: crawl JSON files, oracle crawl journals and the crawlers
// themselves all build through it, so they accept exactly the same
// shapes. The crawl keeps the three slices, so the caller must not modify
// them afterwards.
func NewCrawl(queried []int, neighbors [][]int, walk []int) (*Crawl, error) {
	if len(queried) != len(neighbors) {
		return nil, fmt.Errorf("sampling: %d queried nodes but %d neighbor lists",
			len(queried), len(neighbors))
	}
	seen := make(map[int]struct{}, len(queried))
	for i, u := range queried {
		if u < 0 {
			return nil, fmt.Errorf("sampling: negative queried node id %d at index %d", u, i)
		}
		if _, dup := seen[u]; dup {
			return nil, fmt.Errorf("sampling: node %d queried twice", u)
		}
		seen[u] = struct{}{}
		for _, v := range neighbors[i] {
			if v < 0 {
				return nil, fmt.Errorf("sampling: node %d has negative neighbor id %d", u, v)
			}
		}
	}
	for _, u := range walk {
		if _, ok := seen[u]; !ok {
			return nil, fmt.Errorf("sampling: walk visits unqueried node %d", u)
		}
	}
	return &Crawl{queried: queried, lists: neighbors, walk: walk}, nil
}

// SaveCrawl writes the crawl to a JSON file.
func SaveCrawl(path string, c *Crawl) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCrawl reads a crawl from a JSON file.
func LoadCrawl(path string) (*Crawl, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCrawlJSON(f)
}
