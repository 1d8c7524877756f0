package dkseries

import (
	"context"
	"testing"

	"sgr/internal/graph"
)

// TestRewireShardedContext pins the engine's side of the cancellation
// contract: a live context never changes a single byte of the trajectory,
// and a cancelled one stops the round loop — returning a valid (merely
// under-rewired) graph that still realizes DV and JDM, which the caller
// is expected to discard.
func TestRewireShardedContext(t *testing.T) {
	fixed, cands, target := shardedInput(5, 200)
	n := nodeCount(fixed, cands)
	run := func(ctx context.Context) (*graph.Graph, RewireStats, []graph.Edge) {
		cc := append([]graph.Edge(nil), cands...)
		g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            5,
			Seed2:            5 ^ 0xabcdef,
			Ctx:              ctx,
		})
		return g, st, cc
	}

	gNil, stNil, ccNil := run(nil)
	gLive, stLive, ccLive := run(context.Background())
	if stNil != stLive || !graph.Equal(gNil, gLive) {
		t.Fatal("a live context changed the rewiring trajectory")
	}
	for i := range ccNil {
		if ccNil[i] != ccLive[i] {
			t.Fatalf("candidate %d endpoints diverge under a live context", i)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	gStop, stStop, _ := run(cancelled)
	if stStop.Rounds != 0 || stStop.Attempts != 0 {
		t.Fatalf("cancelled run still rewired: %+v", stStop)
	}
	// The aborted graph is structurally whole: same node count, same edge
	// multiset cardinality as the input edge set — rewiring only ever
	// swaps endpoints, and an abort between rounds leaves no half-swap.
	if gStop.N() != gNil.N() || gStop.M() != gNil.M() {
		t.Fatalf("aborted graph shape n=%d m=%d, want n=%d m=%d", gStop.N(), gStop.M(), gNil.N(), gNil.M())
	}
}
