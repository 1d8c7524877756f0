// Package estimate implements the re-weighted random-walk estimators of
// Sec. III-E: the number of nodes (Katzir et al. / Hardiman–Katzir), the
// average degree (Gjoka et al. / Dasgupta et al.), the degree distribution,
// the hybrid induced-edges/traversed-edges joint degree distribution
// estimator (Gjoka et al., proved unbiased in the paper's Appendix A), and
// the degree-dependent clustering coefficient (Hardiman–Katzir).
//
// All estimators consume only the sampling list of a simple random walk: the
// node sequence x_1..x_r and the neighbor list of each queried node. The
// quadratic pair sums over I = {(i,j) : |i-j| >= M} are computed with
// sliding-window and two-pointer reductions in O(r + near-pairs) time; naive
// O(r^2) references live in the test suite as cross-checks.
package estimate

import (
	"fmt"
	"math"
	"sort"

	"sgr/internal/sampling"
)

// DefaultLagFactor is the paper's choice M = 0.025*r for the minimum index
// separation of pair estimators (after Hardiman & Katzir).
const DefaultLagFactor = 0.025

// Walk is a preprocessed random-walk sample ready for estimation.
type Walk struct {
	Seq []int // x_1..x_r (original node IDs)
	Deg []int // Deg[i] = true degree of Seq[i]

	nbrs map[int][]int // queried node -> neighbor list (the crawl's own)
	pos  map[int][]int // queried node -> sorted positions in Seq
	idx  map[int]int   // queried node -> dense index into ids
	ids  []int         // dense index -> queried node, first-query order
}

// NewWalk validates and indexes a random-walk crawl. The crawl must contain
// a walk sequence with at least 3 steps. The Walk reads c's walk sequence
// and neighbor lists in place, so c must not change while it is in use.
func NewWalk(c *sampling.Crawl) (*Walk, error) {
	if len(c.Walk) < 3 {
		return nil, fmt.Errorf("estimate: walk too short (r=%d, need >= 3)", len(c.Walk))
	}
	w := &Walk{
		Seq:  c.Walk,
		nbrs: c.Neighbors,
		pos:  make(map[int][]int),
		idx:  make(map[int]int, len(c.Neighbors)),
	}
	w.Deg = make([]int, len(c.Walk))
	for i, u := range c.Walk {
		nb, ok := w.nbrs[u]
		if !ok {
			return nil, fmt.Errorf("estimate: walk node %d missing from sampling list", u)
		}
		d := len(nb)
		if d == 0 {
			return nil, fmt.Errorf("estimate: walk visits isolated node %d", u)
		}
		w.Deg[i] = d
		w.pos[u] = append(w.pos[u], i)
	}
	// Dense remap of queried nodes in first-query order: JDDIE visits each
	// queried pair from the endpoint with the smaller index, so which
	// side's list counts must not depend on map order. Fall back to the
	// Neighbors keys for hand-built crawls that carry no Queried list.
	for _, u := range c.Queried {
		if _, ok := c.Neighbors[u]; !ok {
			continue
		}
		if _, dup := w.idx[u]; dup {
			continue
		}
		w.idx[u] = len(w.ids)
		w.ids = append(w.ids, u)
	}
	var rest []int
	for u := range c.Neighbors {
		if _, ok := w.idx[u]; !ok {
			rest = append(rest, u)
		}
	}
	sort.Ints(rest) // map order would leak into the dense order
	for _, u := range rest {
		w.idx[u] = len(w.ids)
		w.ids = append(w.ids, u)
	}
	return w, nil
}

// R returns the walk length r.
func (w *Walk) R() int { return len(w.Seq) }

// Lag returns the paper's index-separation threshold M = max(1, 0.025*r).
func (w *Walk) Lag() int {
	m := int(math.Round(DefaultLagFactor * float64(w.R())))
	if m < 1 {
		m = 1
	}
	return m
}

// multiplicity returns A[u][v] restricted to queried nodes: how many times
// u's own neighbor list names v. The count is directed, so an API that
// reports an edge from one side only answers for (u,v) and (v,u) apart.
func (w *Walk) multiplicity(u, v int) int {
	if u == v {
		return 0 // the hidden graphs are simple
	}
	if _, queried := w.nbrs[v]; !queried {
		return 0
	}
	c := 0
	for _, x := range w.nbrs[u] {
		if x == v {
			c++
		}
	}
	return c
}

// numOrderedFarPairs returns |I| = (r-M)(r-M+1), the number of ordered index
// pairs (i,j), i != j, with |i-j| >= M.
func numOrderedFarPairs(r, m int) float64 {
	if m >= r {
		return 0
	}
	return float64(r-m) * float64(r-m+1)
}

// NumNodes computes the unbiased estimator n-hat of Sec. III-E with lag M:
//
//	n-hat = sum_{(i,j) in I} d_{x_i}/d_{x_j}  /  sum_{(i,j) in I} 1{x_i = x_j}
//
// It also returns the collision count (the denominator). If the walk
// produced no far collisions the estimator is undefined; the function then
// divides by 1 and the caller can detect this via collisions == 0.
func (w *Walk) NumNodes(m int) (est float64, collisions int) {
	r := w.R()
	if m < 1 {
		m = 1
	}
	// Numerator: (sum d_i)(sum 1/d_j) - sum_{|i-j|<M} d_i/d_j.
	var sd, sinv float64
	for _, d := range w.Deg {
		sd += float64(d)
		sinv += 1 / float64(d)
	}
	// Sliding window over j in (i-M, i+M).
	var near float64
	window := 0.0
	lo, hi := 0, 0 // window covers [lo, hi)
	for i := 0; i < r; i++ {
		for hi < r && hi < i+m {
			window += 1 / float64(w.Deg[hi])
			hi++
		}
		for lo < i-m+1 {
			window -= 1 / float64(w.Deg[lo])
			lo++
		}
		near += float64(w.Deg[i]) * window
	}
	num := sd*sinv - near

	// Collisions: total ordered same-node pairs minus near ones.
	total := 0
	nearColl := 0
	for _, ps := range w.pos {
		c := len(ps)
		total += c * (c - 1)
		// ordered near pairs: 2 * #{p<q : q-p < M}
		j := 0
		for i := range ps {
			if j < i {
				j = i
			}
			for j+1 < len(ps) && ps[j+1]-ps[i] < m {
				j++
			}
			nearColl += 2 * (j - i)
		}
	}
	collisions = total - nearColl
	den := float64(collisions)
	if collisions == 0 {
		den = 1
	}
	return num / den, collisions
}

// AvgDegree computes the unbiased average-degree estimator
// k-bar-hat = 1 / ((1/r) sum_i 1/d_{x_i}).
func (w *Walk) AvgDegree() float64 {
	var s float64
	for _, d := range w.Deg {
		s += 1 / float64(d)
	}
	return float64(w.R()) / s
}

// phi returns Phi(k) = (1/(k r)) sum_i 1{d_{x_i} = k} for all observed k.
func (w *Walk) phi() map[int]float64 {
	counts := make(map[int]int)
	for _, d := range w.Deg {
		counts[d]++
	}
	out := make(map[int]float64, len(counts))
	r := float64(w.R())
	for k, c := range counts {
		out[k] = float64(c) / (float64(k) * r)
	}
	return out
}

// DegreeDist computes the unbiased degree-distribution estimator
// P-hat(k) = Phi(k)/Phi-bar, returned as a map over observed degrees.
// The estimates sum to 1 over the observed support.
func (w *Walk) DegreeDist() map[int]float64 {
	phi := w.phi()
	var phiBar float64
	for _, d := range w.Deg {
		phiBar += 1 / float64(d)
	}
	phiBar /= float64(w.R())
	out := make(map[int]float64, len(phi))
	for k, p := range phi {
		out[k] = p / phiBar
	}
	return out
}

// DegreeClustering computes the Hardiman–Katzir estimator of the
// degree-dependent clustering coefficient,
// c-hat(k) = Phi_c(k) / Phi(k), clamped to [0, 1], for every observed
// degree k >= 2 (c(1) = 0 by definition).
func (w *Walk) DegreeClustering() map[int]float64 {
	r := w.R()
	phi := w.phi()
	raw := make(map[int]float64)
	for i := 1; i+1 < r; i++ {
		k := w.Deg[i]
		if k < 2 {
			continue
		}
		if a := w.multiplicity(w.Seq[i-1], w.Seq[i+1]); a > 0 {
			raw[k] += float64(a)
		}
	}
	out := make(map[int]float64, len(phi))
	for k := range phi {
		if k < 2 {
			out[k] = 0
			continue
		}
		phiC := raw[k] / (float64(k-1) * float64(r-2))
		c := phiC / phi[k]
		if c > 1 {
			c = 1
		}
		out[k] = c
	}
	return out
}

// sortedDegrees returns the observed degree support in ascending order.
func (w *Walk) sortedDegrees() []int {
	seen := make(map[int]struct{})
	for _, d := range w.Deg {
		seen[d] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
