package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed region of a trace. Offsets and durations are
// microseconds of monotonic clock relative to the trace start. Count > 1
// marks an aggregate span (a Timer): DurUS is then the accumulated active
// time of Count start/stop episodes, beginning at StartUS. Error, when
// not empty, marks a region that failed, with the error's text.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_usec"`
	DurUS   int64  `json:"dur_usec"`
	Count   int64  `json:"count,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Trace is an ordered sequence of spans sharing one start instant: the
// per-job (or per-run) pipeline timeline. All methods are nil-safe no-ops
// on a nil *Trace, so instrumented code runs untraced at zero cost beyond
// a pointer test — which is also how the byte-identity suites prove
// tracing adds no nondeterminism: spans only ever read the clock, never a
// random stream or an output byte.
//
// A Trace is safe for concurrent use, though the pipeline records spans
// from its serial driver only.
type Trace struct {
	name  string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace now.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// Name returns the trace name ("" for nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Start opens a span and returns the closure that ends it. Spans appear
// in Spans in start order.
func (t *Trace) Start(name string) func() {
	end := t.StartErr(name)
	return func() { end(nil) }
}

// StartErr opens a span for a region that can fail and returns the
// closure that ends it: a non-nil err marks the span with err's text.
func (t *Trace) StartErr(name string) func(err error) {
	if t == nil {
		return func(error) {}
	}
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, StartUS: time.Since(t.start).Microseconds()})
	t.mu.Unlock()
	return func(err error) {
		end := time.Since(t.start).Microseconds()
		t.mu.Lock()
		t.spans[i].DurUS = end - t.spans[i].StartUS
		if err != nil {
			t.spans[i].Error = err.Error()
		}
		t.mu.Unlock()
	}
}

// Timer returns an accumulating span: repeated Start/Stop episodes fold
// into one Span whose DurUS is total active time and whose Count is the
// episode count. This is the round-timing hook — a rewiring run has
// thousands of propose/commit rounds, far too many for one span each, but
// their aggregate split is exactly what the flame chart needs.
func (t *Trace) Timer(name string) *Timer {
	if t == nil {
		return nil
	}
	return &Timer{t: t, name: name, idx: -1}
}

// Timer accumulates start/stop episodes into one aggregate span. Methods
// on a nil *Timer are no-ops. A Timer is owned by one goroutine (the
// round driver); it is not concurrency-safe.
type Timer struct {
	t       *Trace
	name    string
	idx     int
	started time.Time
}

// Start begins an episode.
func (tm *Timer) Start() {
	if tm == nil {
		return
	}
	tm.started = time.Now()
}

// Stop ends an episode, folding it into the aggregate span (creating the
// span on the first episode).
func (tm *Timer) Stop() {
	if tm == nil {
		return
	}
	dur := time.Since(tm.started).Microseconds()
	startUS := tm.started.Sub(tm.t.start).Microseconds()
	tm.t.mu.Lock()
	if tm.idx < 0 {
		tm.idx = len(tm.t.spans)
		tm.t.spans = append(tm.t.spans, Span{Name: tm.name, StartUS: startUS})
	}
	sp := &tm.t.spans[tm.idx]
	sp.DurUS += dur
	sp.Count++
	tm.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// TotalUS returns the span-covered extent of the trace: the latest span
// end offset (0 for nil or empty traces).
func (t *Trace) TotalUS() int64 {
	var total int64
	for _, sp := range t.Spans() {
		if end := sp.StartUS + sp.DurUS; end > total {
			total = end
		}
	}
	return total
}

// TraceJSON is the wire form of a trace: GET /v1/jobs/{id}/trace.
type TraceJSON struct {
	Name    string `json:"name"`
	TotalUS int64  `json:"total_usec"`
	Spans   []Span `json:"spans"`
}

// JSON returns the trace's wire form.
func (t *Trace) JSON() TraceJSON {
	return TraceJSON{Name: t.Name(), TotalUS: t.TotalUS(), Spans: t.Spans()}
}

// chromeEvent is one Chrome trace_event "complete" event. Fields follow
// the Trace Event Format spec (ph "X", microsecond ts/dur).
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	// Args carries a failed span's mark; the viewers show it on selection.
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the args object of a failed span's event.
type chromeArgs struct {
	Error string `json:"error"`
}

// chromeTrace is the JSON-object container format chrome://tracing and
// Perfetto both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome dumps the trace in the Chrome trace_event format for
// flame-chart viewing (chrome://tracing, ui.perfetto.dev). Plain spans
// render on tid 1; aggregate Timer spans on tid 2, so their accumulated
// durations do not visually nest inside phases they interleave with. A
// failed span's event carries its error in args.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		tid := 1
		if sp.Count > 0 {
			tid = 2
		}
		ev := chromeEvent{
			Name: sp.Name, Cat: "pipeline", Ph: "X",
			TS: sp.StartUS, Dur: sp.DurUS, PID: 1, TID: tid,
		}
		if sp.Error != "" {
			ev.Args = &chromeArgs{Error: sp.Error}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
