package core

// This file freezes the graph builds of phases 1-3 and of the rewiring
// engine's set-up as they were before graph.FromEdgeLists: G' grown one
// AddEdge at a time, Algorithm 5 by Clone + AddNodes + AddEdge, and the
// engine's start graph assembled from fixed plus candidate edges, read
// through its CSR and triangle counts, and assembled again as the output.
// The former engine pre-sized the assembled rows with a constructor that
// no longer exists; refAssemble grows them by AddEdge instead.
// TestFrozenBuildsMatchProduction holds production to these bytes, and
// BenchmarkRestorePhases/addedge times them next to production in
// BENCH_rewire.json. Do not "optimize" this file.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// refBuildSubgraph is sampling.BuildSubgraph growing G' by AddEdge. Its
// Edges, which phase 2 reads, are G' sorted edges: the former phase 2
// read the rows of G' instead.
func refBuildSubgraph(c *sampling.Crawl) *sampling.Subgraph {
	off, adj := c.DenseRows()
	g := graph.New(len(c.Nodes()))
	// While row i is scanned, mark[v] == i+1 says edge {i, v} is in g.
	mark := make([]int32, len(c.Nodes()))
	for i := 0; i < c.NumQueried(); i++ {
		stamp := int32(i + 1)
		for _, v := range g.Neighbors(i) { // edges from earlier rows
			mark[v] = stamp
		}
		for _, v := range adj[off[i]:off[i+1]] {
			if mark[v] != stamp {
				mark[v] = stamp
				g.AddEdge(i, int(v))
			}
		}
	}
	return &sampling.Subgraph{Graph: g, Edges: g.Edges(), Nodes: c.Nodes(), NumQueried: c.NumQueried()}
}

// refBuild is dkseries.Build on a base graph, which it clones and
// completes one AddEdge at a time.
func refBuild(base *graph.Graph, baseTargetDeg []int, dv dkseries.DegreeVector, jdm *dkseries.JDM, r *rand.Rand) (*dkseries.BuildResult, error) {
	if base == nil {
		base = graph.New(0)
	}
	if base.N() != len(baseTargetDeg) {
		return nil, fmt.Errorf("dkseries: base has %d nodes but %d target degrees", base.N(), len(baseTargetDeg))
	}
	kmax := dv.KMax()
	for i, d := range baseTargetDeg {
		if d < base.Degree(i) {
			return nil, fmt.Errorf("dkseries: node %d target degree %d < base degree %d", i, d, base.Degree(i))
		}
		if d > kmax {
			return nil, fmt.Errorf("dkseries: node %d target degree %d > kmax %d", i, d, kmax)
		}
	}
	if err := dv.Check(); err != nil {
		return nil, err
	}
	baseCounts := dkseries.BaseDegreeCounts(baseTargetDeg, kmax)
	if err := dv.CheckAgainstBase(baseCounts); err != nil {
		return nil, err
	}
	if err := jdm.Check(dv); err != nil {
		return nil, err
	}
	baseJDM := dkseries.JDMFromBase(base.Edges(), baseTargetDeg, kmax)
	if err := jdm.CheckAgainstBase(baseJDM); err != nil {
		return nil, err
	}

	res := &dkseries.BuildResult{Graph: base.Clone(), NumBase: base.N()}
	nTotal := dv.NumNodes()
	res.Graph.AddNodes(nTotal - base.N())

	res.TargetDeg = make([]int, nTotal)
	copy(res.TargetDeg, baseTargetDeg)
	seq := make([]int, 0, nTotal-base.N())
	for k := 1; k <= kmax; k++ {
		for i := 0; i < dv[k]-baseCounts[k]; i++ {
			seq = append(seq, k)
		}
	}
	if len(seq) != nTotal-base.N() {
		return nil, fmt.Errorf("dkseries: degree sequence length %d != added nodes %d", len(seq), nTotal-base.N())
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for i, k := range seq {
		res.TargetDeg[base.N()+i] = k
	}

	halves := make([][]int, kmax+1)
	for u := 0; u < nTotal; u++ {
		free := res.TargetDeg[u]
		if u < base.N() {
			free -= base.Degree(u)
		}
		k := res.TargetDeg[u]
		for i := 0; i < free; i++ {
			halves[k] = append(halves[k], u)
		}
	}

	pop := func(k int) (int, error) {
		h := halves[k]
		if len(h) == 0 {
			return 0, fmt.Errorf("dkseries: class %d ran out of half-edges", k)
		}
		i := r.IntN(len(h))
		u := h[i]
		h[i] = h[len(h)-1]
		halves[k] = h[:len(h)-1]
		return u, nil
	}
	var err error
	jdm.IterCells(func(k, kp, count int) bool {
		need := count - baseJDM.Get(k, kp)
		for i := 0; i < need; i++ {
			var u, v int
			if u, err = pop(k); err != nil {
				return false
			}
			if v, err = pop(kp); err != nil {
				return false
			}
			res.Graph.AddEdge(u, v)
			res.Added = append(res.Added, graph.Edge{U: u, V: v})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for k, h := range halves {
		if len(h) != 0 {
			return nil, fmt.Errorf("dkseries: %d unused half-edges in class %d", len(h), k)
		}
	}
	return res, nil
}

// refAssemble builds the graph of fixed plus candidates, edges in that
// order, one AddEdge at a time.
func refAssemble(n int, fixed, candidates []graph.Edge) *graph.Graph {
	g := graph.New(n)
	for _, es := range [][]graph.Edge{fixed, candidates} {
		for _, e := range es {
			g.AddEdge(e.U, e.V)
		}
	}
	return g
}

// phaseOutputs is what phases 1-3 and the engine's set-up build.
type phaseOutputs struct {
	sub, built, out *graph.Graph
	added           []graph.Edge
}

// runPhases runs the subgraph span, phases 1-3 and the rewiring engine's
// set-up (RC 0, so no rounds) on one crawl with a fixed estimate, through
// production (frozen false) or this file's frozen builds (frozen true).
// The engine's bucket and shard set-up runs in production only: the frozen
// side reproduces the engine's graph builds, not its whole state.
func runPhases(c *sampling.Crawl, est *estimate.Estimates, seed uint64, frozen bool) (phaseOutputs, error) {
	r := PipelineRand(seed)
	var o phaseOutputs
	var sub *sampling.Subgraph
	if frozen {
		sub = refBuildSubgraph(c)
	} else {
		sub = sampling.BuildSubgraph(c)
	}
	o.sub = sub.Graph
	dvs, targetDeg, err := buildTargetDegreeVector(est, sub, r)
	if err != nil {
		return o, err
	}
	jdm, err := buildTargetJDM(est, dvs.dv, sub, targetDeg, r)
	if err != nil {
		return o, err
	}
	var built *dkseries.BuildResult
	if frozen {
		built, err = refBuild(sub.Graph, targetDeg, dvs.dv, jdm, r)
	} else {
		built, err = dkseries.Build(sub.Edges, targetDeg, dvs.dv, jdm, r)
	}
	if err != nil {
		return o, err
	}
	o.built, o.added = built.Graph, built.Added
	fixed := sub.Graph.Edges()
	n := built.Graph.N()
	if frozen {
		refAssemble(n, fixed, built.Added).TriangleCounts() // the start state
		o.out = refAssemble(n, fixed, built.Added)
	} else {
		o.out, _ = dkseries.RewireSharded(n, fixed, built.Added, dkseries.ShardedRewireOptions{
			TargetClustering: est.Clustering,
		})
	}
	return o, nil
}

// TestFrozenBuildsMatchProduction holds the production builds of the
// subgraph, Algorithm 5 and the rewiring engine's RC-0 output to this
// file's frozen AddEdge builds, byte for byte, on several crawls and seeds.
// (TestShardedStateMatchesSerial covers the engine's start state.)
func TestFrozenBuildsMatchProduction(t *testing.T) {
	for _, name := range []string{"anybeat", "brightkite"} {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build(0.02, PipelineRand(5))
		for seed := uint64(1); seed <= 3; seed++ {
			c := crawlOn(t, g, 0.1, seed)
			w, err := estimate.NewWalk(c)
			if err != nil {
				t.Fatal(err)
			}
			est := estimate.All(w)
			got, err := runPhases(c, est, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runPhases(c, est, seed, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range [][2]*graph.Graph{{got.sub, want.sub}, {got.built, want.built}, {got.out, want.out}} {
				gb, err := graph.AppendBinary(nil, p[0])
				if err != nil {
					t.Fatal(err)
				}
				wb, err := graph.AppendBinary(nil, p[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s seed %d: graph bytes differ from the frozen build", name, seed)
				}
			}
			if !slices.Equal(got.added, want.added) {
				t.Fatalf("%s seed %d: added edges differ", name, seed)
			}
		}
	}
}
