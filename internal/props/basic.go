// Package props computes the twelve structural properties of Sec. V-B used
// throughout the paper's evaluation: number of nodes, average degree, degree
// distribution, neighbor connectivity, network clustering coefficient,
// degree-dependent clustering coefficient, edgewise shared partner
// distribution, average shortest-path length, shortest-path length
// distribution, diameter, degree-dependent betweenness centrality, and the
// largest adjacency eigenvalue.
//
// Shortest-path properties are computed on the largest connected component,
// exactly as in the paper, via goroutine-parallel BFS and Brandes
// betweenness (the paper uses the parallel algorithms of Bader & Madduri for
// the same quantities). For large graphs a pivot-sampling approximation
// bounds the cost; the exact/approximate switch is explicit in Options.
package props

import (
	"sgr/internal/graph"
)

// DegreeDist returns P(k), the fraction of nodes with each degree.
func DegreeDist(g *graph.Graph) map[int]float64 {
	out := make(map[int]float64)
	for u := 0; u < g.N(); u++ {
		out[g.Degree(u)]++
	}
	n := float64(g.N())
	for k := range out {
		out[k] /= n
	}
	return out
}

// NeighborConnectivity returns kbar_nn(k): for each degree k, the average
// over degree-k nodes of the mean neighbor degree (1/k) sum_j A_ij d_j.
// Multi-edges weight neighbors by multiplicity; a self-loop contributes the
// node's own degree twice, per the adjacency-matrix convention.
func NeighborConnectivity(g *graph.Graph) map[int]float64 {
	// Each node's mean neighbor degree sums over the CSR endpoint view, in
	// the order of the adjacency lists it snapshots.
	c := g.CSR()
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < c.N(); u++ {
		k := c.Degree(u)
		cnt[k]++
		if k == 0 {
			continue
		}
		s := 0.0
		for _, v := range c.Endpoints(u) {
			s += float64(c.Degree(int(v)))
		}
		sum[k] += s / float64(k)
	}
	out := make(map[int]float64, len(cnt))
	for k, c := range cnt {
		out[k] = sum[k] / float64(c)
	}
	return out
}

// LocalClustering returns the per-node local clustering coefficients
// 2 t_i / (d_i (d_i - 1)), zero for degree < 2.
func LocalClustering(g *graph.Graph) []float64 {
	t := g.TriangleCounts()
	out := make([]float64, g.N())
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d >= 2 {
			out[u] = 2 * float64(t[u]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// GlobalClustering returns the network clustering coefficient cbar: the
// mean local clustering coefficient over all nodes (Sec. V-B, property 5).
func GlobalClustering(g *graph.Graph) float64 {
	return globalClusteringOf(g, LocalClustering(g))
}

// globalClusteringOf derives cbar from precomputed local coefficients.
func globalClusteringOf(g *graph.Graph, local []float64) float64 {
	if g.N() == 0 {
		return 0
	}
	s := 0.0
	for _, c := range local {
		s += c
	}
	return s / float64(g.N())
}

// DegreeClustering returns cbar(k): the mean local clustering coefficient
// over nodes of each degree, with cbar(k) = 0 for k < 2.
func DegreeClustering(g *graph.Graph) map[int]float64 {
	return degreeClusteringOf(g, LocalClustering(g))
}

// degreeClusteringOf derives cbar(k) from precomputed local coefficients.
func degreeClusteringOf(g *graph.Graph, local []float64) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		k := g.Degree(u)
		cnt[k]++
		sum[k] += local[u]
	}
	out := make(map[int]float64, len(cnt))
	for k, c := range cnt {
		out[k] = sum[k] / float64(c)
	}
	return out
}

// EdgewiseSharedPartners returns P(s) (Sec. V-B, property 7): the fraction
// of (non-loop) edge instances whose endpoints share exactly s neighbors,
// sp(i,j) = sum_{k != i,j} A_ik A_jk.
func EdgewiseSharedPartners(g *graph.Graph) map[int]float64 {
	// A dense histogram indexed by shared-partner count: the hot loop is a
	// sorted-merge intersection of two CSR rows plus one slice increment.
	c := g.CSR()
	var counts []int64
	var total int64
	for u := 0; u < c.N(); u++ {
		nbr, mult := c.Row(u)
		for i, vk := range nbr {
			v := int(vk)
			if v <= u {
				continue // each distinct pair once; self-loops excluded
			}
			// sp(u,v) = sum_{w != u,v} A_uw A_vw by sorted-merge of the
			// two distinct rows (endpoint exclusion is structural).
			sp := c.SharedPartners(u, v)
			for int64(len(counts)) <= sp {
				counts = append(counts, 0)
			}
			// One entry per parallel edge instance.
			counts[sp] += int64(mult[i])
			total += int64(mult[i])
		}
	}
	out := make(map[int]float64)
	if total == 0 {
		return out
	}
	for s, c := range counts {
		if c > 0 {
			out[s] = float64(c) / float64(total)
		}
	}
	return out
}
