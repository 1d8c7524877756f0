package core

import (
	"context"
	"errors"
	"testing"

	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/sampling"
)

// TestRestoreContextCancellation pins the cooperative-cancellation
// contract of the pipeline: a context only ever aborts a run — it never
// perturbs one that completes — and an abort surfaces the context's cause
// so callers can classify it.
func TestRestoreContextCancellation(t *testing.T) {
	g := testOriginal(t, 21)
	c := crawlOn(t, g, 0.15, 21)

	// A live context is invisible: bytes and stats are identical to a
	// context-free run at the same seed.
	base, err := Restore(c, Options{RC: 5, Rand: PipelineRand(9)})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Restore(c, Options{RC: 5, Rand: PipelineRand(9), Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(base.Graph, withCtx.Graph) {
		t.Fatal("a live context changed the restored graph")
	}
	if base.RewireStats != withCtx.RewireStats || base.NumAdded != withCtx.NumAdded {
		t.Fatalf("a live context changed the stats: %+v vs %+v", withCtx.RewireStats, base.RewireStats)
	}

	// A cancelled context aborts before any phase runs, and the abort
	// error wraps the cancellation cause.
	cause := errors.New("operator said stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	res, err := Restore(c, Options{RC: 5, Rand: PipelineRand(9), Ctx: ctx})
	if err == nil {
		t.Fatal("restore with a cancelled context succeeded")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("abort error %v does not wrap the cause %v", err, cause)
	}
	if res != nil && res.Graph != nil {
		t.Fatal("aborted restore leaked a partial graph")
	}

	// Same for a cause-less cancel (context.Canceled) and an expired
	// deadline (context.DeadlineExceeded) — the two stdlib shapes.
	plain, cancelPlain := context.WithCancel(context.Background())
	cancelPlain()
	if _, err := Restore(c, Options{RC: 5, Rand: PipelineRand(9), Ctx: plain}); !errors.Is(err, context.Canceled) {
		t.Fatalf("plain cancel surfaced %v, want context.Canceled", err)
	}
	expired, cancelExpired := context.WithTimeout(context.Background(), 0)
	defer cancelExpired()
	<-expired.Done()
	if _, err := Restore(c, Options{RC: 5, Rand: PipelineRand(9), Ctx: expired}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline surfaced %v, want context.DeadlineExceeded", err)
	}
}

// spanCtx is a context that is cancelled from the moment its trace holds
// a span named phase: it cancels a restore inside that phase, whatever
// the phase's timing.
type spanCtx struct {
	context.Context
	tr    *obs.Trace
	phase string
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *spanCtx) started() bool {
	for _, sp := range c.tr.Spans() {
		if sp.Name == c.phase {
			return true
		}
	}
	return false
}

func (c *spanCtx) Done() <-chan struct{} {
	if c.started() {
		return closedDone
	}
	return nil
}

func (c *spanCtx) Err() error {
	if c.started() {
		return context.Canceled
	}
	return nil
}

// TestFailedPhaseSpanMarked: a restore that fails inside a phase, or is
// cancelled inside one, leaves that phase's span marked with the error it
// returns, and every other span unmarked.
func TestFailedPhaseSpanMarked(t *testing.T) {
	g := testOriginal(t, 21)
	c := crawlOn(t, g, 0.15, 21)
	marked := func(tr *obs.Trace, err error, phase string) {
		t.Helper()
		found := false
		for _, sp := range tr.Spans() {
			switch {
			case sp.Name == phase:
				found = true
				if sp.Error != err.Error() {
					t.Errorf("span %q marked %q, want %q", sp.Name, sp.Error, err)
				}
			case sp.Error != "":
				t.Errorf("span %q marked %q; only %q failed", sp.Name, sp.Error, phase)
			}
		}
		if !found {
			t.Errorf("no %q span in %+v", phase, tr.Spans())
		}
	}

	short, err := sampling.NewCrawl(c.Queried(), c.Lists(), c.Walk()[:2])
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("short-walk")
	if _, err := Restore(short, Options{RC: 5, Rand: PipelineRand(9), Trace: tr}); err == nil {
		t.Error("restore of a two-step walk succeeded")
	} else {
		marked(tr, err, "estimate")
	}

	tr = obs.NewTrace("cancelled")
	ctx := &spanCtx{Context: context.Background(), tr: tr, phase: rewirePhase}
	_, err = Restore(c, Options{RC: 5, Rand: PipelineRand(9), Trace: tr, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("restore cancelled in %s: err = %v, want context.Canceled", rewirePhase, err)
	}
	marked(tr, err, rewirePhase)
}
