package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestTraceSpansOrderedAndCovering(t *testing.T) {
	tr := NewTrace("job")
	end := tr.Start("phase1")
	time.Sleep(2 * time.Millisecond)
	end()
	end = tr.Start("phase2")
	time.Sleep(2 * time.Millisecond)
	end()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "phase1" || spans[1].Name != "phase2" {
		t.Fatalf("span order = %q,%q", spans[0].Name, spans[1].Name)
	}
	if spans[0].StartUS > spans[1].StartUS {
		t.Fatalf("spans not in start order: %d > %d", spans[0].StartUS, spans[1].StartUS)
	}
	for _, sp := range spans {
		if sp.DurUS <= 0 {
			t.Errorf("span %s has no duration", sp.Name)
		}
	}
	if total := tr.TotalUS(); total < spans[1].StartUS+spans[1].DurUS {
		t.Errorf("TotalUS %d below last span end", total)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	end := tr.Start("anything")
	end()
	tm := tr.Timer("rounds")
	tm.Start()
	tm.Stop()
	if tr.Spans() != nil || tr.TotalUS() != 0 || tr.Name() != "" {
		t.Fatal("nil trace must be inert")
	}
}

func TestTimerAccumulates(t *testing.T) {
	tr := NewTrace("job")
	tm := tr.Timer("propose")
	for i := 0; i < 3; i++ {
		tm.Start()
		time.Sleep(time.Millisecond)
		tm.Stop()
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("timer made %d spans, want 1 aggregate", len(spans))
	}
	sp := spans[0]
	if sp.Name != "propose" || sp.Count != 3 {
		t.Fatalf("aggregate span = %+v, want 3 episodes", sp)
	}
	if sp.DurUS < 3*900 { // three ~1ms sleeps, generous floor
		t.Fatalf("aggregate duration %dus too small", sp.DurUS)
	}
}

func TestTraceJSONAndChrome(t *testing.T) {
	tr := NewTrace("demo")
	end := tr.Start("estimate")
	end()
	tm := tr.Timer("rewire/propose")
	tm.Start()
	tm.Stop()

	js := tr.JSON()
	if js.Name != "demo" || len(js.Spans) != 2 {
		t.Fatalf("JSON = %+v", js)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome dump is not JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 || out.DisplayTimeUnit != "ms" {
		t.Fatalf("chrome dump = %+v", out)
	}
	if out.TraceEvents[0].Ph != "X" || out.TraceEvents[0].TID != 1 {
		t.Errorf("plain span event = %+v, want ph X on tid 1", out.TraceEvents[0])
	}
	if out.TraceEvents[1].TID != 2 {
		t.Errorf("aggregate span event = %+v, want tid 2", out.TraceEvents[1])
	}
}

// TestFailedSpanMarked: a span ended with an error carries its text in
// Spans, in the JSON wire form and in the Chrome event's args, while a
// span that succeeded keeps the bytes it had before spans could fail.
func TestFailedSpanMarked(t *testing.T) {
	tr := NewTrace("demo")
	tr.StartErr("estimate")(nil)
	tr.StartErr("phase2_jdm")(errors.New("no realizable JDM"))

	spans := tr.Spans()
	if spans[0].Error != "" || spans[1].Error != "no realizable JDM" {
		t.Fatalf("spans = %+v, want only phase2_jdm marked", spans)
	}
	ok, err := json.Marshal(spans[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ok, []byte("error")) {
		t.Errorf("successful span JSON %s carries an error key", ok)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome dump is not JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("chrome dump = %s", buf.String())
	}
	if out.TraceEvents[0].Args != nil {
		t.Errorf("successful span event has args %v", out.TraceEvents[0].Args)
	}
	if got := out.TraceEvents[1].Args["error"]; got != "no realizable JDM" {
		t.Errorf("failed span event args = %v, want its error", out.TraceEvents[1].Args)
	}
}
