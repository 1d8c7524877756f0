package dkseries

import (
	"math"
	"strings"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/props"
)

// badRCs are the coefficients every entry point must refuse: before the
// shared AttemptBudget, int(rc * len(candidates)) turned each of them into
// a zero or negative budget, and the run reported "accepted 0/0" as
// success.
var badRCs = []struct {
	name string
	rc   float64
}{
	{"NaN", math.NaN()},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
	{"1e30", 1e30},
	{"negative", -1},
	{"just past MaxRC", math.Nextafter(MaxRC, math.Inf(1))},
}

func TestCheckRC(t *testing.T) {
	for _, tc := range badRCs {
		if err := CheckRC(tc.rc); err == nil {
			t.Errorf("%s: CheckRC(%v) accepted", tc.name, tc.rc)
		}
	}
	for _, rc := range []float64{0, 0.5, 2, 5, 50, DefaultRC, MaxRC} {
		if err := CheckRC(rc); err != nil {
			t.Errorf("CheckRC(%v) = %v", rc, err)
		}
	}
}

func TestAttemptBudget(t *testing.T) {
	for _, tc := range []struct {
		rc         float64
		candidates int
		want       int
	}{
		{0, 1000, 0},
		{0.5, 3, 1},
		{2, 1234, 2468},
		{DefaultRC, 4321, 2160500},
		{MaxRC, 1 << 20, 1 << 20 * 1e6},
	} {
		if got := AttemptBudget(tc.rc, tc.candidates); got != tc.want {
			t.Errorf("AttemptBudget(%v, %d) = %d, want %d", tc.rc, tc.candidates, got, tc.want)
		}
	}
	for _, tc := range badRCs {
		mustPanic(t, tc.name, func() { AttemptBudget(tc.rc, 10) })
	}
	mustPanic(t, "int overflow", func() { AttemptBudget(MaxRC, math.MaxInt/100) })
}

// TestEnginesRefuseBadRC: RewireSharded panics on an invalid RC rather
// than run a silently empty rewiring — with candidates or without — and
// DK25 reports it as an error.
func TestEnginesRefuseBadRC(t *testing.T) {
	g := gen.HolmeKim(60, 2, 0.5, rng(40))
	target := props.DegreeClustering(g)
	for _, tc := range badRCs {
		mustPanic(t, "RewireSharded "+tc.name, func() {
			RewireSharded(g.N(), nil, g.Edges(), ShardedRewireOptions{TargetClustering: target, RC: tc.rc, Workers: 1})
		})
		mustPanic(t, "RewireSharded no candidates "+tc.name, func() {
			RewireSharded(g.N(), g.Edges(), nil, ShardedRewireOptions{TargetClustering: target, RC: tc.rc, Workers: 1})
		})
		if _, _, err := DK25(g, tc.rc, rng(42)); err == nil || !strings.Contains(err.Error(), "rc") {
			t.Errorf("DK25 %s: err = %v, want an rc range error", tc.name, err)
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}
