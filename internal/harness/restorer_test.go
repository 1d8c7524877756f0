package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

	"sgr/internal/core"
	"sgr/internal/sampling"
)

// TestEvaluateRestorerHook proves Config.Restorer is the generation seam:
// a custom restorer observes every restoration cell, and one that honors
// the determinism contract (here: delegating to the default pipeline)
// leaves the evaluation's property distances bit-identical.
func TestEvaluateRestorerHook(t *testing.T) {
	g := smallGraph(t)
	cfg := quickConfig()
	cfg.Methods = []Method{MethodRW, MethodGjoka, MethodProposed}

	base, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	var gjoka, proposed atomic.Int64
	hooked := cfg
	hooked.Restorer = func(m Method, c *sampling.Crawl, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		switch m {
		case MethodGjoka:
			gjoka.Add(1)
		case MethodProposed:
			proposed.Add(1)
		default:
			t.Errorf("restorer called for non-restoration method %q", m)
		}
		if opts.Rand == nil {
			t.Error("restorer received nil Options.Rand")
		}
		if len(c.Walk()) == 0 {
			t.Error("restorer received a walkless crawl")
		}
		return DefaultRestorer(m, c, opts)
	}
	got, err := Evaluate(g, hooked)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one call per (run, restoration-method) cell.
	if want := int64(cfg.Runs * 2); calls.Load() != want {
		t.Fatalf("restorer called %d times, want %d", calls.Load(), want)
	}
	if gjoka.Load() != int64(cfg.Runs) || proposed.Load() != int64(cfg.Runs) {
		t.Fatalf("per-method calls gjoka=%d proposed=%d, want %d each",
			gjoka.Load(), proposed.Load(), cfg.Runs)
	}
	// Bit-identical distances (timings legitimately differ run to run).
	for _, m := range cfg.Methods {
		if !reflect.DeepEqual(base.Stats[m].PerProperty, got.Stats[m].PerProperty) {
			t.Fatalf("%s: hooked evaluation distances differ from default", m)
		}
	}
}
