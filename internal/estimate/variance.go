package estimate

import (
	"fmt"
	"math"
)

// Interval is a point estimate with a normal-approximation confidence
// interval.
type Interval struct {
	Estimate float64
	// StdErr is the batch-means standard error of the estimate.
	StdErr float64
	// Lo and Hi bound the 95% confidence interval.
	Lo, Hi float64
	// Batches is the number of batches used.
	Batches int
}

const z95 = 1.959963984540054

func newInterval(est, stderr float64, batches int) Interval {
	return Interval{
		Estimate: est,
		StdErr:   stderr,
		Lo:       est - z95*stderr,
		Hi:       est + z95*stderr,
		Batches:  batches,
	}
}

// batchMeans splits the walk into nb contiguous batches, applies f to each
// batch's index range to obtain per-batch estimates, and returns the grand
// mean with its batch-means standard error. This is the standard MCMC
// output-analysis technique for correlated samples such as random walks.
func (w *Walk) batchMeans(nb int, f func(lo, hi int) float64) (Interval, error) {
	r := w.R()
	if nb < 2 {
		return Interval{}, fmt.Errorf("estimate: need at least 2 batches, got %d", nb)
	}
	if r < 2*nb {
		return Interval{}, fmt.Errorf("estimate: walk of length %d too short for %d batches", r, nb)
	}
	means := make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo := b * r / nb
		hi := (b + 1) * r / nb
		means[b] = f(lo, hi)
	}
	grand := 0.0
	for _, m := range means {
		grand += m
	}
	grand /= float64(nb)
	varSum := 0.0
	for _, m := range means {
		d := m - grand
		varSum += d * d
	}
	se := math.Sqrt(varSum / float64(nb-1) / float64(nb))
	return newInterval(grand, se, nb), nil
}

// DefaultBatches is the default batch count for confidence intervals.
const DefaultBatches = 10

// AvgDegreeInterval returns the average-degree estimate with a batch-means
// 95% confidence interval.
func (w *Walk) AvgDegreeInterval(batches int) (Interval, error) {
	if batches <= 0 {
		batches = DefaultBatches
	}
	return w.batchMeans(batches, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += 1 / float64(w.Deg[i])
		}
		return float64(hi-lo) / s
	})
}

// GlobalClusteringInterval returns the Hardiman–Katzir estimate of the
// network (mean local) clustering coefficient cbar with a batch-means 95%
// confidence interval. The per-sample statistic follows Sec. III-E's
// degree-dependent construction, collapsed over degrees:
// cbar ≈ sum_i phi_i / sum_i psi_i with
// phi_i = A(x_{i-1}, x_{i+1}) / (d_{x_i} - 1) and psi_i = 1/d_{x_i} terms
// re-weighted to node space.
func (w *Walk) GlobalClusteringInterval(batches int) (Interval, error) {
	if batches <= 0 {
		batches = DefaultBatches
	}
	return w.batchMeans(batches, func(lo, hi int) float64 {
		num, den := 0.0, 0.0
		if lo == 0 {
			lo = 1
		}
		if hi > w.R()-1 {
			hi = w.R() - 1
		}
		for i := lo; i < hi; i++ {
			d := w.Deg[i]
			den += 1 / float64(d)
			if d < 2 {
				continue
			}
			if a := w.multiplicity(w.lab.Walk[i-1], w.lab.Walk[i+1]); a > 0 {
				num += float64(a) / float64(d-1)
			}
		}
		if den == 0 {
			return 0
		}
		c := num / den
		if c > 1 {
			c = 1
		}
		return c
	})
}

// GlobalClustering returns the point estimate of the network clustering
// coefficient (mean local clustering) from the walk.
func (w *Walk) GlobalClustering() float64 {
	num, den := 0.0, 0.0
	for i := 1; i+1 < w.R(); i++ {
		d := w.Deg[i]
		den += 1 / float64(d)
		if d < 2 {
			continue
		}
		if a := w.multiplicity(w.lab.Walk[i-1], w.lab.Walk[i+1]); a > 0 {
			num += float64(a) / float64(d-1)
		}
	}
	if den == 0 {
		return 0
	}
	c := num / den
	if c > 1 {
		c = 1
	}
	return c
}

// NumNodesInterval returns the node-count estimate with a batch-means 95%
// confidence interval: each batch runs the collision estimator on its own
// index range (with the lag scaled to the batch length).
func (w *Walk) NumNodesInterval(batches int) (Interval, error) {
	if batches <= 0 {
		batches = DefaultBatches / 2
	}
	return w.batchMeans(batches, func(lo, hi int) float64 {
		sub := &Walk{
			Seq: w.Seq[lo:hi],
			Deg: w.Deg[lo:hi],
			pos: positionsOf(w.lab.Walk[lo:hi], len(w.deg)),
		}
		m := int(math.Round(DefaultLagFactor * float64(hi-lo)))
		if m < 1 {
			m = 1
		}
		est, _ := sub.NumNodes(m)
		return est
	})
}

// positionsOf groups the positions of a walk given as dense IDs by queried
// node: pos[u] lists, in ascending order, the steps i with at[i] == u.
func positionsOf(at []int32, numQueried int) [][]int {
	pos := make([][]int, numQueried)
	for i, u := range at {
		pos[u] = append(pos[u], i)
	}
	return pos
}
