package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"sgr/internal/dkseries"
	"sgr/internal/gen"
	"sgr/internal/graph"
)

// TestRestoreRCBytesPinned pins SHA-256 of the restored graph's binary
// encoding at the RC values in use (the paper's 500 and the smaller ones
// the benchmarks and tests run), recorded before the attempt budget moved
// to dkseries.AttemptBudget: validation and the shared budget helper must
// not move a single byte of any valid run.
func TestRestoreRCBytesPinned(t *testing.T) {
	g := gen.HolmeKim(600, 4, 0.5, PipelineRand(3))
	c := crawlOn(t, g, 0.15, 7)
	for _, tc := range []struct {
		rc   float64
		want string
	}{
		{500, "7bc2da8a503fccb25876764805b17a6e5cb72234ef92fb98be0fc437d8f0a1eb"},
		{50, "91691d93b8aea7219578cdc1fb6a43d93cd3a0a44bd95ad93eda298e6bf81c0e"},
		{5, "f05a8b50e2cc0b9befef7965a649c157ab1f7947d40215f772259dadb5de405c"},
		{2, "052e6188e0457fc69cc025258396565f8aef3e73e8c286334acd68aebf0ff093"},
	} {
		rc, want := tc.rc, tc.want
		res, err := Restore(c, Options{RC: rc, Rand: PipelineRand(7)})
		if err != nil {
			t.Fatalf("rc=%v: %v", rc, err)
		}
		bin, err := graph.AppendBinary(nil, res.Graph)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(bin)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("rc=%v: restored graph digest = %s, want %s", rc, got, want)
		}
	}
}

// TestRestoreRejectsBadRC: every restoration entry point refuses an RC
// that is not finite or lies outside [0, dkseries.MaxRC], before doing any
// work, instead of rewiring nothing and reporting success.
func TestRestoreRejectsBadRC(t *testing.T) {
	g := testOriginal(t, 41)
	c := crawlOn(t, g, 0.05, 42)
	for _, tc := range []struct {
		name string
		rc   float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"1e30", 1e30},
		{"negative", -1},
		{"just past MaxRC", math.Nextafter(dkseries.MaxRC, math.Inf(1))},
	} {
		opts := Options{RC: tc.rc, Rand: rng(43)}
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted rc %v", tc.name, tc.rc)
		}
		if _, err := Restore(c, opts); err == nil || !strings.Contains(err.Error(), "rc") {
			t.Errorf("%s: Restore err = %v, want an rc range error", tc.name, err)
		}
		if _, err := RestoreGjoka(c, opts); err == nil {
			t.Errorf("%s: RestoreGjoka accepted rc %v", tc.name, tc.rc)
		}
	}
	for _, rc := range []float64{0, 2, dkseries.DefaultRC, dkseries.MaxRC} {
		if err := (Options{RC: rc}).Validate(); err != nil {
			t.Errorf("Validate(rc=%v) = %v", rc, err)
		}
	}
}
