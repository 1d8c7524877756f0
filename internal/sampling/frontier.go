package sampling

import (
	"fmt"
	"math/rand/v2"
)

// FrontierSampling performs the multidimensional random walk of Ribeiro &
// Towsley (IMC 2010), cited in the paper's related work: dim walkers share
// one query budget; at each step a walker is chosen with probability
// proportional to its current node's degree and advances to a uniform
// random neighbor. The sample sequence (the Walk field) is the sequence of
// advanced-from nodes, which is degree-biased exactly like a simple random
// walk in steady state, so the package estimators apply unchanged — while
// being robust to disconnected or loosely connected components.
//
// Seeds are the initial walker positions; len(seeds) sets the dimension.
func FrontierSampling(access Access, seeds []int, fraction float64, r *rand.Rand) (*Crawl, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sampling: frontier sampling needs at least one seed")
	}
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	walkers := append([]int(nil), seeds...)
	degs := make([]int, len(walkers))
	total := 0
	for i, u := range walkers {
		d := len(rec.query(u))
		degs[i] = d
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("sampling: all frontier seeds are isolated")
	}
	for rec.numQueried() < budget {
		// Pick a walker with probability proportional to its degree.
		x := r.IntN(total)
		wi := 0
		for x >= degs[wi] {
			x -= degs[wi]
			wi++
		}
		u := walkers[wi]
		nb := rec.query(u) // u is queried: no new query
		if len(nb) == 0 {
			// Teleport a stuck walker to a random queried node.
			q := rec.queried
			u = q[r.IntN(len(q))]
			nb = rec.query(u)
			if len(nb) == 0 {
				return nil, fmt.Errorf("sampling: frontier walker stuck at isolated node %d", u)
			}
		}
		rec.walk = append(rec.walk, u)
		v := nb[r.IntN(len(nb))]
		dv := len(rec.query(v))
		total += dv - degs[wi]
		walkers[wi] = v
		degs[wi] = dv
	}
	return rec.crawl()
}
