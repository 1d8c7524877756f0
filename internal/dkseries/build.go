package dkseries

import (
	"fmt"
	"math/rand/v2"

	"sgr/internal/graph"
)

// BuildResult is the outcome of Build: the constructed graph, the target
// degree of every node, and the edges added on top of the base (the rewiring
// candidate set of the proposed method).
type BuildResult struct {
	Graph     *graph.Graph
	TargetDeg []int
	Added     []graph.Edge
	NumBase   int // nodes [0, NumBase) come from the base subgraph
}

// Build implements Algorithm 5 generalized to an arbitrary base: it
// constructs a graph that contains base as a subgraph and exactly realizes
// the target degree vector dv and target joint degree matrix jdm. Passing a
// nil or empty base yields the classic 2K construction from an empty graph
// (used by Gjoka et al.'s method, Appendix B).
//
// baseTargetDeg assigns each base node its target degree (>= its degree in
// base). Build validates all realizability conditions and returns an error
// naming the violated one, so callers' target-construction bugs surface
// immediately rather than as panics mid-wiring.
func Build(base *graph.Graph, baseTargetDeg []int, dv DegreeVector, jdm *JDM, r *rand.Rand) (*BuildResult, error) {
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
	baseCounts := BaseDegreeCounts(baseTargetDeg, kmax)
	if err := dv.CheckAgainstBase(baseCounts); err != nil {
		return nil, err
	}
	if err := jdm.Check(dv); err != nil {
		return nil, err
	}
	baseJDM := JDMFromBase(base, baseTargetDeg, kmax)
	if err := jdm.CheckAgainstBase(baseJDM); err != nil {
		return nil, err
	}

	res := &BuildResult{Graph: base.Clone(), NumBase: base.N()}
	nTotal := dv.NumNodes()
	res.Graph.AddNodes(nTotal - base.N())

	// Assign target degrees: base nodes keep theirs; the remaining degree
	// slots are shuffled onto the added nodes (Algorithm 5 lines 3-8).
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

	// Free half-edges per degree class (lines 9-12): base nodes contribute
	// target - current, added nodes contribute their whole target degree.
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

	// Wire m(k,k') - m'(k,k') random half pairs per degree pair, pairs in
	// ascending (k, k') order (lines 13-16).
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
