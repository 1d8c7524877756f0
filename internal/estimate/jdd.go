package estimate

import (
	"slices"
	"sort"
)

// DegreePair is a canonical (K <= Kp) degree pair keying joint-degree maps.
// The stored value is the full-matrix entry P(k,k') = P(k',k).
type DegreePair struct{ K, Kp int }

// Pair canonicalizes (k, k') into a DegreePair.
func Pair(k, kp int) DegreePair {
	if k > kp {
		k, kp = kp, k
	}
	return DegreePair{k, kp}
}

// JDDIE computes the induced-edges estimator
// P-hat_IE(k,k') = n-hat * kbar-hat * Phi(k,k') with
// Phi(k,k') = (1/(k k' |I|)) * sum_{(i,j) in I} 1{d_{x_i}=k, d_{x_j}=k'} A_{x_i x_j},
// using lag m. Keys are canonical pairs holding the full-matrix entry value.
func (w *Walk) JDDIE(nHat, avgDegHat float64, m int) map[DegreePair]float64 {
	r := w.R()
	if m < 1 {
		m = 1
	}
	absI := numOrderedFarPairs(r, m)
	out := make(map[DegreePair]float64)
	if absI == 0 {
		return out
	}
	// For each adjacent queried pair {u,v}, count ordered far position
	// pairs. Both orders contribute, so the diagonal entry (k,k)
	// accumulates twice the unordered count. Each unordered pair is read
	// from the list of its endpoint with the smaller dense index, one entry
	// at a time, so an edge listed k times adds its count k times. Every
	// addend is an integer-valued float, so the sums are exact and the
	// estimate bits do not depend on the accumulation order. The sums go
	// into a grid over the queried nodes' distinct degrees, and only its
	// non-zero cells become map entries.
	cls := make([]int, slices.Max(w.deg)+1) // degree -> grid index
	for _, d := range w.deg {
		cls[d] = 1
	}
	var degs []int // grid index -> degree, ascending
	for d := range cls {
		if cls[d] != 0 {
			cls[d] = len(degs)
			degs = append(degs, d)
		}
	}
	nd := len(degs)
	grid := make([]float64, nd*nd)
	for ui, pu := range w.pos {
		if len(pu) == 0 {
			continue
		}
		cu := cls[w.deg[ui]]
		for _, vi := range w.lab.Row(ui) {
			// Visible neighbors follow every queried index.
			if int(vi) <= ui || int(vi) >= len(w.pos) {
				continue
			}
			pv := w.pos[vi]
			if len(pv) == 0 {
				continue
			}
			far := float64(len(pu)*len(pv) - nearPositionPairs(pu, pv, m))
			if far <= 0 {
				continue
			}
			cv := cls[w.deg[vi]]
			if cu == cv {
				far *= 2
			}
			grid[min(cu, cv)*nd+max(cu, cv)] += far
		}
	}
	for a, k := range degs {
		for b := a; b < nd; b++ {
			if sum := grid[a*nd+b]; sum > 0 {
				kp := degs[b]
				out[DegreePair{k, kp}] = sum * (nHat * avgDegHat / (float64(k) * float64(kp) * absI))
			}
		}
	}
	return out
}

// nearPositionPairs counts pairs (p in pu, q in pv) with |p - q| < m, for
// sorted position lists, via a sliding window.
func nearPositionPairs(pu, pv []int, m int) int {
	count := 0
	lo, hi := 0, 0
	for _, p := range pu {
		for hi < len(pv) && pv[hi] < p+m {
			hi++
		}
		for lo < len(pv) && pv[lo] <= p-m {
			lo++
		}
		if hi > lo {
			count += hi - lo
		}
	}
	return count
}

// JDDTE computes the traversed-edges estimator
// P-hat_TE(k,k') = (1/(2(r-1))) sum_i (1{d_i=k, d_{i+1}=k'} + 1{d_i=k', d_{i+1}=k}).
// Keys are canonical pairs holding the full-matrix entry value.
func (w *Walk) JDDTE() map[DegreePair]float64 {
	r := w.R()
	out := make(map[DegreePair]float64)
	for i := 0; i+1 < r; i++ {
		k, kp := w.Deg[i], w.Deg[i+1]
		contrib := 1.0
		if k == kp {
			contrib = 2.0
		}
		out[Pair(k, kp)] += contrib
	}
	norm := 2 * float64(r-1)
	for kk := range out {
		out[kk] /= norm
	}
	return out
}

// JDDHybrid computes the paper's hybrid estimator: the IE estimate for
// degree pairs with k + k' >= 2*kbar-hat (where induced edges are plentiful)
// and the TE estimate otherwise. This matches Sec. III-E and is proved
// asymptotically unbiased in Appendix A.
func (w *Walk) JDDHybrid(nHat, avgDegHat float64, m int) map[DegreePair]float64 {
	ie := w.JDDIE(nHat, avgDegHat, m)
	te := w.JDDTE()
	out := make(map[DegreePair]float64, len(ie)+len(te))
	threshold := 2 * avgDegHat
	for kk, v := range te {
		if float64(kk.K+kk.Kp) < threshold {
			out[kk] = v
		}
	}
	for kk, v := range ie {
		if float64(kk.K+kk.Kp) >= threshold {
			out[kk] = v
		}
	}
	return out
}

// Estimates bundles the five local-property estimates consumed by the
// restoration method (Sec. IV overview).
type Estimates struct {
	N          float64                // n-hat, estimated number of nodes
	Collisions int                    // far-collision count behind n-hat
	AvgDeg     float64                // kbar-hat, estimated average degree
	DegreeDist map[int]float64        // P-hat(k)
	JDD        map[DegreePair]float64 // hybrid P-hat(k,k')
	Clustering map[int]float64        // c-bar-hat(k)
	Lag        int                    // M used for pair estimators
}

// TriangleCount composes the estimates into the global triangle count,
// t-hat = (n-hat/3) * sum_k P-hat(k) c-hat(k) k(k-1)/2 — the quantity the
// triangle-counting literature (Refs. [10], [20] of the paper) estimates
// directly; here it falls out of the degree and clustering spectra.
func (e *Estimates) TriangleCount() float64 {
	// Accumulate in ascending degree order: float addition is not
	// associative, and map order would leak into the returned bits.
	ks := make([]int, 0, len(e.DegreeDist))
	for k := range e.DegreeDist {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var s float64
	for _, k := range ks {
		if k < 2 {
			continue
		}
		s += e.DegreeDist[k] * e.Clustering[k] * float64(k) * float64(k-1) / 2
	}
	return e.N * s / 3
}

// MaxDegree returns the largest degree with positive estimated probability.
func (e *Estimates) MaxDegree() int {
	max := 0
	for k, p := range e.DegreeDist {
		if p > 0 && k > max {
			max = k
		}
	}
	return max
}

// All runs every estimator with the paper's default lag M = 0.025r.
func All(w *Walk) *Estimates {
	m := w.Lag()
	nHat, coll := w.NumNodes(m)
	avg := w.AvgDegree()
	return &Estimates{
		N:          nHat,
		Collisions: coll,
		AvgDeg:     avg,
		DegreeDist: w.DegreeDist(),
		JDD:        w.JDDHybrid(nHat, avg, m),
		Clustering: w.DegreeClustering(),
		Lag:        m,
	}
}
