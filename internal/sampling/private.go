package sampling

import (
	"fmt"
	"math/rand/v2"
)

// PrivateAccess wraps an Access and makes a subset of nodes private:
// querying them yields no neighbor data, as in real social networks where
// users hide their friend lists. This models the setting of Nakajima &
// Shudo (KDD 2020), cited in the paper's related work.
type PrivateAccess struct {
	inner   Access
	private map[int]struct{}
}

// NewPrivateAccess marks the given nodes private.
func NewPrivateAccess(inner Access, private []int) *PrivateAccess {
	p := &PrivateAccess{inner: inner, private: make(map[int]struct{}, len(private))}
	for _, u := range private {
		p.private[u] = struct{}{}
	}
	return p
}

// NeighborsOf returns nil for private nodes (the query fails) and the true
// neighbor list otherwise.
func (p *PrivateAccess) NeighborsOf(u int) []int {
	if _, ok := p.private[u]; ok {
		return nil
	}
	return p.inner.NeighborsOf(u)
}

// NumNodes implements Access.
func (p *PrivateAccess) NumNodes() int { return p.inner.NumNodes() }

// IsPrivate reports whether u is private.
func (p *PrivateAccess) IsPrivate(u int) bool {
	_, ok := p.private[u]
	return ok
}

// PrivateAwareWalk random-walks a graph containing private nodes: when the
// walk draws a private neighbor it marks the node and redraws among the
// remaining neighbors, never stepping onto nodes whose lists are hidden.
// The sampling list contains public nodes only. Private neighbors still
// appear inside neighbor lists (they are visible, just not queryable), so
// the induced subgraph may contain them as visible nodes.
//
// The walk fails if it reaches a public node all of whose neighbors are
// private (an isolated public region).
func PrivateAwareWalk(access *PrivateAccess, seed int, fraction float64, r *rand.Rand) (*Crawl, error) {
	if access.IsPrivate(seed) {
		return nil, fmt.Errorf("sampling: seed node %d is private", seed)
	}
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	cur := seed
	for {
		nb := rec.query(cur)
		rec.walk = append(rec.walk, cur)
		if rec.numQueried() >= budget {
			break
		}
		// Draw among non-private neighbors.
		candidates := make([]int, 0, len(nb))
		for _, v := range nb {
			if !access.IsPrivate(v) {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("sampling: node %d has no public neighbors", cur)
		}
		cur = candidates[r.IntN(len(candidates))]
	}
	return rec.crawl()
}
