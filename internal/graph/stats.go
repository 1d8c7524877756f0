package graph

// JointDegreeMatrix returns m(k,k') as a map keyed by canonical degree pairs
// (k <= k'): the number of edges between nodes with degree k and degree k'.
// Multi-edges count with multiplicity; a self-loop at a degree-k node counts
// as one edge in m(k,k).
func (g *Graph) JointDegreeMatrix() map[[2]int]int {
	jdm := make(map[[2]int]int)
	for u, a := range g.adj {
		du := len(a)
		loops := 0
		for _, v := range a {
			switch {
			case v > u:
				dv := len(g.adj[v])
				k, kp := du, dv
				if k > kp {
					k, kp = kp, k
				}
				jdm[[2]int{k, kp}]++
			case v == u:
				loops++
			}
		}
		jdm[[2]int{du, du}] += loops / 2
	}
	for k, v := range jdm {
		if v == 0 {
			delete(jdm, k)
		}
	}
	return jdm
}

// TriangleCounts returns t[i], the number of triangles node i belongs to,
// using the paper's multiplicity-aware definition
// t_i = sum_{j<l, j!=i, l!=i} A_ij * A_il * A_jl. Self-loops never form
// triangles under this definition.
func (g *Graph) TriangleCounts() []int64 {
	// Mark-and-probe over the sorted distinct CSR rows: every adjacent
	// pair u < v contributes A_uv * A_uw * A_vw to t[w] for each common
	// neighbor w — exactly t[w]'s sum over unordered pairs of w's distinct
	// neighbors. Row u's multiplicities are stamped into a dense array
	// once, then each higher-numbered neighbor row is probed against the
	// stamps. The counts are exact integers, so the visiting order never
	// shows in the result.
	c := g.CSR()
	t := make([]int64, c.n)
	mark := make([]int64, c.n)
	for u := range t {
		nbr, mult := c.Row(u)
		for x, v := range nbr {
			mark[v] = int64(mult[x])
		}
		for x, v := range nbr {
			if int(v) <= u {
				continue
			}
			auv := int64(mult[x])
			vn, vm := c.Row(int(v))
			for y, w := range vn {
				// u is never marked and row v never holds v (a distinct
				// row excludes its own node), so a marked w is a third node.
				if mark[w] != 0 {
					t[w] += auv * mark[w] * int64(vm[y])
				}
			}
		}
		for _, v := range nbr {
			mark[v] = 0
		}
	}
	return t
}

// GlobalTriangles returns the total number of triangles in the graph
// (each triangle counted once).
func (g *Graph) GlobalTriangles() int64 {
	var sum int64
	for _, t := range g.TriangleCounts() {
		sum += t
	}
	return sum / 3
}

// DegreeSum returns the sum of all node degrees (== 2*M()).
func (g *Graph) DegreeSum() int {
	s := 0
	for _, a := range g.adj {
		s += len(a)
	}
	return s
}

// NeighborMultiplicities returns, for node u, the map from each distinct
// non-self neighbor to the edge multiplicity A[u][v].
func (g *Graph) NeighborMultiplicities(u int) map[int]int {
	g.checkNode(u)
	m := make(map[int]int)
	for _, v := range g.adj[u] {
		if v != u {
			m[v]++
		}
	}
	return m
}

// LoopCount returns the number of self-loops at u.
func (g *Graph) LoopCount(u int) int {
	g.checkNode(u)
	c := 0
	for _, v := range g.adj[u] {
		if v == u {
			c++
		}
	}
	return c / 2
}

// CountMultiEdges returns the number of "excess" edge instances beyond the
// first between each distinct node pair, plus the number of self-loops.
// A simple graph returns 0.
func (g *Graph) CountMultiEdges() int {
	excess := 0
	for u, a := range g.adj {
		seen := make(map[int]int)
		loops := 0
		for _, v := range a {
			if v == u {
				loops++
				continue
			}
			if v > u {
				seen[v]++
			}
		}
		for _, c := range seen {
			excess += c - 1
		}
		excess += loops / 2
	}
	return excess
}
