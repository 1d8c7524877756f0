// Package core implements the paper's primary contribution (Sec. IV): the
// four-phase social graph restoration method, plus the reproducible variant
// of Gjoka et al.'s 2.5K generation method (Appendix B) used as a baseline.
//
// Phase 1 builds the target degree vector {n*(k)} (Sec. IV-B, Algorithms
// 1-2), phase 2 the target joint degree matrix {m*(k,k')} (Sec. IV-C,
// Algorithms 3-4), phase 3 adds nodes and half-edge-wired edges to the
// sampled subgraph (Sec. IV-D, Algorithm 5, in internal/dkseries), and
// phase 4 rewires added edges toward the estimated degree-dependent
// clustering coefficient (Sec. IV-E, Algorithm 6, in internal/dkseries).
package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"sgr/internal/dkseries"
	"sgr/internal/estimate"
	"sgr/internal/sampling"
)

// nearInt is the paper's NearInt: nearest integer, halves away from zero.
func nearInt(a float64) int { return int(math.Round(a)) }

// dvState carries the target degree vector under construction together with
// the original estimates needed by the error terms Delta+-.
type dvState struct {
	dv    dkseries.DegreeVector
	nHatK []float64 // n-hat(k) = n-hat * P-hat(k); 0 where P-hat(k) = 0
}

// deltaPlus is the increase in relative error of n*(k) when incrementing it
// (Sec. IV-B); +Inf where the estimate gives no mass.
func (s *dvState) deltaPlus(k int) float64 {
	nh := s.nHatK[k]
	if nh <= 0 {
		return math.Inf(1)
	}
	cur := float64(s.dv[k])
	return (math.Abs(nh-(cur+1)) - math.Abs(nh-cur)) / nh
}

// initDegreeVector performs the initialization step of Sec. IV-B-1: kmax is
// the larger of the estimated support maximum and the subgraph maximum
// degree, and n*(k) = max(NearInt(n-hat P-hat(k)), 1) wherever P-hat(k) > 0.
func initDegreeVector(est *estimate.Estimates, subMaxDegree int) *dvState {
	kmax := est.MaxDegree()
	if subMaxDegree > kmax {
		kmax = subMaxDegree
	}
	if kmax < 1 {
		kmax = 1
	}
	s := &dvState{
		dv:    dkseries.NewDegreeVector(kmax),
		nHatK: make([]float64, kmax+1),
	}
	for k, p := range est.DegreeDist {
		if p <= 0 || k < 1 || k > kmax {
			continue
		}
		s.nHatK[k] = est.N * p
		n := nearInt(s.nHatK[k])
		if n < 1 {
			n = 1
		}
		s.dv[k] = n
	}
	return s
}

// adjustDegreeVector implements Algorithm 1: if the degree sum is odd,
// increment n*(k) for the odd degree k with the smallest error increase
// (smallest k on ties) so that DV-2 holds.
func (s *dvState) adjustDegreeVector() {
	if s.dv.DegreeSum()%2 == 0 {
		return
	}
	bestK := -1
	best := math.Inf(1)
	for k := 1; k <= s.dv.KMax(); k += 2 {
		if d := s.deltaPlus(k); d < best {
			best = d
			bestK = k
		}
	}
	if bestK < 0 {
		// Every odd degree has an infinite error term; take the smallest.
		bestK = 1
	}
	s.dv[bestK]++
}

// modifyDegreeVector implements Algorithm 2: assign target degrees to every
// subgraph node (queried nodes keep their true degree per Lemma 1, visible
// nodes draw a degree >= their partial degree) while raising n*(k) where
// needed so DV-3 holds. Returns the per-node target degrees, indexed like
// sub.Nodes.
func (s *dvState) modifyDegreeVector(sub *sampling.Subgraph, r *rand.Rand) []int {
	kmax := s.dv.KMax()
	n := sub.Graph.N()
	targetDeg := make([]int, n)
	nPrime := make([]int, kmax+1)

	// Queried nodes: d*_i = d'_i (lines 2-4).
	for i := 0; i < sub.NumQueried; i++ {
		d := sub.Graph.Degree(i)
		targetDeg[i] = d
		nPrime[d]++
	}
	// Raise n*(k) to n'(k) where violated (lines 5-6), and set up the
	// Fenwick tree over the residual weights n*(k) - n'(k).
	fw := newFenwick(kmax)
	for k := 1; k <= kmax; k++ {
		if s.dv[k] < nPrime[k] {
			s.dv[k] = nPrime[k]
		}
		if w := s.dv[k] - nPrime[k]; w > 0 {
			fw.add(k, w)
		}
	}

	// Visible nodes in decreasing subgraph-degree order (ties by node ID
	// for determinism).
	visible := make([]int, 0, n-sub.NumQueried)
	for i := sub.NumQueried; i < n; i++ {
		visible = append(visible, i)
	}
	slices.SortFunc(visible, func(a, b int) int {
		if c := cmp.Compare(sub.Graph.Degree(b), sub.Graph.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, i := range visible {
		dPrime := sub.Graph.Degree(i)
		k := fw.sample(dPrime, kmax, r)
		if k < 0 {
			// Dseq(i) empty (lines 11-12): pick k in [d'_i, kmax] with the
			// smallest error increase, smallest k on ties.
			best := math.Inf(1)
			k = dPrime
			for cand := dPrime; cand <= kmax; cand++ {
				if d := s.deltaPlus(cand); d < best {
					best = d
					k = cand
				}
			}
			// n'(k) will exceed n*(k); raise n*(k) (line 15). The Fenwick
			// weight n*(k)-n'(k) stays zero.
			targetDeg[i] = k
			nPrime[k]++
			if s.dv[k] < nPrime[k] {
				s.dv[k] = nPrime[k]
			}
			continue
		}
		// Drawn from the residual multiset: consume one unit of weight.
		targetDeg[i] = k
		nPrime[k]++
		fw.add(k, -1)
	}
	return targetDeg
}

// buildTargetDegreeVector runs phase 1 end to end. sub may be nil (Gjoka
// et al.'s method skips the modification step). It returns the finished
// target degree vector and, when sub is given, the target degree of each
// subgraph node.
func buildTargetDegreeVector(est *estimate.Estimates, sub *sampling.Subgraph, r *rand.Rand) (*dvState, []int, error) {
	subMax := 0
	if sub != nil {
		subMax = sub.Graph.MaxDegree()
	}
	s := initDegreeVector(est, subMax)
	s.adjustDegreeVector()
	var targetDeg []int
	if sub != nil {
		targetDeg = s.modifyDegreeVector(sub, r)
		// The modification step may have broken DV-2; adjust again
		// (Sec. IV-B-3, final paragraph).
		s.adjustDegreeVector()
	}
	if err := s.dv.Check(); err != nil {
		return nil, nil, fmt.Errorf("core: phase 1 produced invalid degree vector: %w", err)
	}
	if sub != nil {
		counts := dkseries.BaseDegreeCounts(targetDeg, s.dv.KMax())
		if err := s.dv.CheckAgainstBase(counts); err != nil {
			return nil, nil, fmt.Errorf("core: phase 1 violated DV-3: %w", err)
		}
	}
	return s, targetDeg, nil
}
