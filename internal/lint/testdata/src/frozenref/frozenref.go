// Fixture distilled from the frozen reference engines
// (internal/props/csrdiff_test.go and the map-based rewiring engine that
// internal/dkseries once kept as a test reference):
// the map-iteration shapes those differential guards rely on, which the
// maprange analyzer must recognize as order-insensitive rather than
// false-positive on. The whole suite runs over this package expecting
// zero findings.
package frozenref

import "sort"

// The csrdiff_test.go shape: per-degree sums and counts accumulated into
// maps (integer counts commute; float slots are keyed by the loop
// variable of a slice loop, not a map loop), then a map-to-map division
// keyed by the range key — each key visited exactly once, so iteration
// order cannot matter.
func refDegreeAverage(degree []int, avg []float64) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := range degree {
		k := degree[u]
		cnt[k]++
		if k > 0 {
			sum[k] += avg[u]
		}
	}
	out := make(map[int]float64, len(cnt))
	for k, c := range cnt {
		out[k] = sum[k] / float64(c)
	}
	return out
}

// The nested shape of refEdgewiseSharedPartners: a map range whose body
// only declares per-iteration state, accumulates integers (commutative),
// and guards with continue — then a keyed map-to-map normalization.
func refSharedPartners(mm map[int]int, mult func(int, int) int, u int) map[int]float64 {
	counts := make(map[int]int)
	total := 0
	for v, cuv := range mm {
		if v <= u {
			continue
		}
		sp := 0
		for w, cuw := range mm {
			if w == u || w == v {
				continue
			}
			if cb := mult(v, w); cb > 0 {
				sp += cuw * cb
			}
		}
		counts[sp] += cuv
		total += cuv
	}
	out := make(map[int]float64)
	if total == 0 {
		return out
	}
	for s, c := range counts {
		out[s] = float64(c) / float64(total)
	}
	return out
}

// The map-based rewiring engine's settle shape after PR 2's determinism fix:
// map keys are collected and sorted before any float accumulation, so the
// accumulation order is a function of the keys alone.
func refSettle(adj map[int]int, weight func(int) float64) float64 {
	keys := make([]int, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	normC := 0.0
	for _, k := range keys {
		normC += weight(k) * float64(adj[k])
	}
	return normC
}

// The kmax scan both engines open with: a running max over target
// degrees, a commutative fold.
func refKMax(target map[int]float64, deg []int) int {
	kmax := 0
	for _, d := range deg {
		if d > kmax {
			kmax = d
		}
	}
	for k := range target {
		if k > kmax {
			kmax = k
		}
	}
	return kmax
}

// Membership probing with literal results is order-free.
func refHasPositive(adj map[int]int) bool {
	for _, c := range adj {
		if c > 0 {
			return true
		}
	}
	return false
}
