package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sgr/internal/obs"
)

// span is one timed region the benchmark recorded around a call into a
// layer, or a program span imported under one. Times are microseconds
// from the tracer's start. Count > 0 marks an aggregate (an obs.Timer:
// DurUS of Count start/stop episodes, not one interval).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_usec"`
	EndUS   int64  `json:"end_usec"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps the run's spans in memory; they are written out once, when
// the run ends. A disabled tracer records nothing and costs one branch.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) nowUS() int64 { return time.Since(t.t0).Microseconds() }

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	now := t.nowUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: now, EndUS: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.nowUS()
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// adopt imports a program trace as children of span parent. origin is the
// instant the obs.Trace was created, which its span offsets count from.
func (t *tracer) adopt(parent, op int, origin time.Time, ot *obs.Trace) {
	if parent < 0 || ot == nil {
		return
	}
	t.adoptSpans(parent, op, origin.Sub(t.t0).Microseconds(), ot.Spans())
}

// adoptSpans imports spans whose offsets count from base (tracer time).
func (t *tracer) adoptSpans(parent, op int, base int64, spans []obs.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: parent, Op: op, Name: s.Name,
			StartUS: base + s.StartUS, EndUS: base + s.StartUS + s.DurUS, Count: s.Count,
		})
	}
}

// selfTimes sums each span name's self time in milliseconds: its duration
// minus the part of it that its children cover (the union of the
// children's intervals, plus the accumulated time of aggregate children).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.EndUS < 0 {
			continue
		}
		dur := s.EndUS - s.StartUS
		if s.Count > 0 {
			out[s.Name] += float64(dur) / 1e3
			continue
		}
		covered := int64(0)
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			if k.EndUS < 0 {
				continue
			}
			if k.Count > 0 {
				covered += k.EndUS - k.StartUS
				continue
			}
			iv = append(iv, [2]int64{max(k.StartUS, s.StartUS), min(k.EndUS, s.EndUS)})
		}
		covered += unionLength(iv)
		out[s.Name] += float64(max(dur-covered, 0)) / 1e3
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		curE = max(curE, x[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeFile writes every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
