package restored

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sgr/internal/graph"
	"sgr/internal/props"
)

// Result is one finished restoration: the binary-codec graph bytes (the
// canonical, content-addressed artifact — downloads serve this slice
// zero-copy), a small audit summary, and lazily materialized views (the
// decoded graph for edge-list rendering, the 12-property JSON).
type Result struct {
	// GraphBin is the SGRB encoding of the restored graph. Immutable.
	GraphBin []byte
	// Meta is the audit summary persisted next to the graph.
	Meta ResultMeta

	mu        sync.Mutex
	g         *graph.Graph
	propsJSON []byte
}

// ResultMeta is the JSON sidecar of a cache entry.
type ResultMeta struct {
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	NumAdded       int     `json:"num_added"`
	RewireAccepted int     `json:"rewire_accepted"`
	RewireAttempts int     `json:"rewire_attempts"`
	TotalMS        float64 `json:"total_ms"`
	RewireMS       float64 `json:"rewire_ms"`
}

// JobResult renders the wire form of the summary.
func (r *Result) JobResult() *JobResult {
	return &JobResult{
		Nodes:          r.Meta.Nodes,
		Edges:          r.Meta.Edges,
		NumAdded:       r.Meta.NumAdded,
		RewireAccepted: r.Meta.RewireAccepted,
		RewireAttempts: r.Meta.RewireAttempts,
		TotalMS:        r.Meta.TotalMS,
		RewireMS:       r.Meta.RewireMS,
		GraphBytes:     len(r.GraphBin),
	}
}

// Graph decodes the binary bytes once and memoizes the graph. Entries
// loaded from disk pay the decode on first edge-list or props request
// only; binary downloads never decode at all.
func (r *Result) Graph() (*graph.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.g == nil {
		g, err := graph.DecodeBinary(r.GraphBin)
		if err != nil {
			return nil, err
		}
		r.g = g
	}
	return r.g, nil
}

// Props computes (once) the 12 structural properties of the restored graph
// and memoizes their JSON rendering. workers bounds the computation's CPU;
// the bytes are the same at any value.
func (r *Result) Props(workers int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.propsJSON != nil {
		return r.propsJSON, nil
	}
	if r.g == nil {
		g, err := graph.DecodeBinary(r.GraphBin)
		if err != nil {
			return nil, err
		}
		r.g = g
	}
	pr := props.Compute(r.g, props.Options{Workers: workers})
	buf, err := json.Marshal(pr)
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	r.propsJSON = buf
	return buf, nil
}

// Cache is the content-addressed result store: an in-memory map fronting
// an optional on-disk directory. Disk entries are two files per key —
// <key>.sgrb (the binary graph) and <key>.json (the ResultMeta sidecar) —
// written atomically, so a daemon restart warm-starts from every result it
// ever computed.
type Cache struct {
	mu  sync.Mutex
	mem map[string]*Result
	dir string
}

// NewCache opens a cache; dir == "" keeps results in memory only.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Cache{mem: make(map[string]*Result), dir: dir}, nil
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Get returns the cached result for key, falling back to (and re-warming
// from) the disk tier.
func (c *Cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	r, ok := c.mem[key]
	c.mu.Unlock()
	if ok || c.dir == "" {
		return r, ok
	}
	r, err := c.load(key)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	// A concurrent loader may have won; keep the first so every caller
	// shares one memoized graph/props view.
	if prev, ok := c.mem[key]; ok {
		r = prev
	} else {
		c.mem[key] = r
	}
	c.mu.Unlock()
	return r, true
}

// Put stores a result under key, persisting it when a disk tier is
// configured. The in-memory store always succeeds; a disk failure is
// returned so the caller can log it, but does not lose the result.
func (c *Cache) Put(key string, r *Result) error {
	c.mu.Lock()
	c.mem[key] = r
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	meta, err := json.Marshal(r.Meta)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(c.graphPath(key), r.GraphBin); err != nil {
		return err
	}
	return writeFileAtomic(c.metaPath(key), meta)
}

// load reads one key's pair of files from the disk tier, verifying the
// graph bytes decode before trusting them (a corrupt entry reads as a
// miss, and the pipeline recomputes it).
func (c *Cache) load(key string) (*Result, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("restored: invalid cache key %q", key)
	}
	bin, err := os.ReadFile(c.graphPath(key))
	if err != nil {
		return nil, err
	}
	metaRaw, err := os.ReadFile(c.metaPath(key))
	if err != nil {
		return nil, err
	}
	r := &Result{GraphBin: bin}
	if err := json.Unmarshal(metaRaw, &r.Meta); err != nil {
		return nil, err
	}
	g, err := graph.DecodeBinary(bin)
	if err != nil {
		return nil, err
	}
	r.g = g
	return r, nil
}

func (c *Cache) graphPath(key string) string { return filepath.Join(c.dir, key+".sgrb") }
func (c *Cache) metaPath(key string) string  { return filepath.Join(c.dir, key+".json") }

// validKey guards the disk tier against path-shaped keys. Service-computed
// keys are always lowercase hex; anything else never touches the
// filesystem.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}

// writeFileAtomic writes via a temp file + rename so readers (including a
// concurrently restarted daemon) never observe a torn entry.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
