package sampling

import (
	"fmt"
	"math/rand/v2"
)

// MetropolisHastingsWalk performs a Metropolis–Hastings random walk whose
// stationary distribution is uniform over nodes: a proposed move from u to a
// uniform neighbor v is accepted with probability min(1, d_u/d_v), otherwise
// the walk self-loops at u. Discussed in the paper's related work as an
// alternative to re-weighting.
func MetropolisHastingsWalk(access Access, seed int, fraction float64, r *rand.Rand) (*Crawl, error) {
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
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: MH walk stuck at isolated node %d", cur)
		}
		v := nb[r.IntN(len(nb))]
		dv := len(rec.query(v))
		if rec.numQueried() >= budget {
			// Querying the proposal consumed the budget before the
			// acceptance test could run. The query is counted (v is in the
			// sampling list), but the proposal must NOT be recorded as a
			// walk step: every recorded transition has to have passed the
			// MH acceptance rule, or the chain's stationary distribution —
			// and every re-weighted estimator built on it — is biased.
			break
		}
		// dv >= 1 always: v was returned as a neighbor of cur, so in an
		// undirected graph it is incident to at least the edge (cur, v).
		if du := len(nb); r.Float64() < float64(du)/float64(dv) {
			cur = v
		}
	}
	return rec.crawl()
}

// MetropolisHastingsWalkSteps performs the same Metropolis–Hastings walk
// for exactly steps recorded steps (with repetition), regardless of the
// distinct-query count — the fixed-length variant used for studying the
// chain's stationary distribution, mirroring RandomWalkSteps.
func MetropolisHastingsWalkSteps(access Access, seed, steps int, r *rand.Rand) (*Crawl, error) {
	if steps < 1 {
		return nil, fmt.Errorf("sampling: steps %d < 1", steps)
	}
	rec := newRecorder(access)
	cur := seed
	for i := 0; i < steps; i++ {
		nb := rec.query(cur)
		rec.walk = append(rec.walk, cur)
		if i == steps-1 {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: MH walk stuck at isolated node %d", cur)
		}
		v := nb[r.IntN(len(nb))]
		dv := len(rec.query(v)) // >= 1: v is adjacent to cur
		if du := len(nb); r.Float64() < float64(du)/float64(dv) {
			cur = v
		}
	}
	return rec.crawl()
}

// allEqual reports whether every entry of nb equals w.
func allEqual(nb []int, w int) bool {
	for _, v := range nb {
		if v != w {
			return false
		}
	}
	return true
}

// NonBacktrackingWalk performs the non-backtracking random walk of Lee,
// Xu & Eun (SIGMETRICS 2012): the next node is chosen uniformly among the
// current node's neighbors excluding the previous node, unless the current
// node has degree one, in which case the walk backtracks.
func NonBacktrackingWalk(access Access, seed int, fraction float64, r *rand.Rand) (*Crawl, error) {
	budget, err := budgetFromFraction(access, fraction)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(access)
	cur, prev := seed, -1
	for {
		nb := rec.query(cur)
		rec.walk = append(rec.walk, cur)
		if rec.numQueried() >= budget {
			break
		}
		if len(nb) == 0 {
			return nil, fmt.Errorf("sampling: NB walk stuck at isolated node %d", cur)
		}
		next := -1
		switch {
		case len(nb) == 1:
			next = nb[0] // degree-1 node: forced backtrack
		case allEqual(nb, prev):
			// Multi-edge leaf: every incident edge leads back to prev, so
			// the walk must backtrack. Detecting this once up front keeps
			// the rejection loop below guaranteed to terminate without
			// re-scanning the neighbor list on every rejected draw.
			next = prev
		default:
			// Rejection-sample a neighbor different from prev; at least
			// one exists, so the loop terminates with probability 1.
			for {
				if cand := nb[r.IntN(len(nb))]; cand != prev {
					next = cand
					break
				}
			}
		}
		prev, cur = cur, next
	}
	return rec.crawl()
}
