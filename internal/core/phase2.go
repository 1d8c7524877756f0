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

// jdmState carries the target joint degree matrix under construction with
// the estimate-derived quantities behind the error terms Delta+-.
type jdmState struct {
	jdm  *dkseries.JDM
	mHat [][]mHatCell // m-hat(k,k') = n-hat kbar-hat P-hat(k,k')/mu by row
	dv   dkseries.DegreeVector
}

// mHatCell is one entry of an m-hat row. Rows are laid out like a
// dkseries.JDM's: the estimate's cells of degree k by ascending k', both
// halves of the symmetric matrix.
type mHatCell struct {
	kp int
	v  float64
}

// seekMHat advances the cursor *row, an m-hat row, to column k' and
// returns m-hat there, 0 where the estimate gives no mass. Successive calls
// on one cursor must ask for ascending k', which makes a scan of a row one
// merge pass.
func seekMHat(row *[]mHatCell, kp int) float64 {
	r := *row
	for len(r) > 0 && r[0].kp < kp {
		r = r[1:]
	}
	*row = r
	if len(r) > 0 && r[0].kp == kp {
		return r[0].v
	}
	return 0
}

// deltaAdd is the relative-error increase of a cell with estimate mh when
// changing it from cur by +1 (dir=+1) or -1 (dir=-1); +Inf where the
// estimate gives no mass.
func deltaAdd(mh float64, cur, dir int) float64 {
	if mh <= 0 {
		return math.Inf(1)
	}
	c := float64(cur)
	return (math.Abs(mh-(c+float64(dir))) - math.Abs(mh-c)) / mh
}

// initJDM performs the initialization step of Sec. IV-C-1:
// m*(k,k') = max(NearInt(n-hat kbar-hat P-hat(k,k')/mu), 1) where the
// estimated joint degree distribution has mass.
func initJDM(est *estimate.Estimates, dv dkseries.DegreeVector) *jdmState {
	kmax := dv.KMax()
	s := &jdmState{
		jdm:  dkseries.NewJDM(kmax),
		mHat: make([][]mHatCell, kmax+1),
		dv:   dv,
	}
	// Canonical keys (K <= Kp) in (K, Kp) order fill every m-hat row r
	// ascending by construction: first the cells K < r from keys (K, r),
	// then Kp >= r from keys (r, Kp).
	keys := make([]estimate.DegreePair, 0, len(est.JDD))
	for kk := range est.JDD {
		keys = append(keys, kk)
	}
	slices.SortFunc(keys, func(a, b estimate.DegreePair) int {
		return cmp.Or(cmp.Compare(a.K, b.K), cmp.Compare(a.Kp, b.Kp))
	})
	for _, kk := range keys {
		p := est.JDD[kk]
		if p <= 0 || kk.K < 1 || kk.Kp > kmax {
			continue
		}
		mu := 1.0
		if kk.K == kk.Kp {
			mu = 2.0
		}
		mh := est.N * est.AvgDeg * p / mu
		s.mHat[kk.K] = append(s.mHat[kk.K], mHatCell{kp: kk.Kp, v: mh})
		if kk.K != kk.Kp {
			s.mHat[kk.Kp] = append(s.mHat[kk.Kp], mHatCell{kp: kk.K, v: mh})
		}
		m := nearInt(mh)
		if m < 1 {
			m = 1
		}
		s.jdm.Add(kk.K, kk.Kp, m)
	}
	return s
}

// maxAdjustSteps caps the Algorithm-3 loop; it is a defensive bound far
// above what any valid input needs, turning a would-be hang into an error.
const maxAdjustSteps = 50_000_000

// adjustJDM implements Algorithm 3: make s(k) = k*n*(k) hold for every
// degree (JDM-3) by incrementing/decrementing cells, never dropping below
// mmin (nil means all-zero), possibly raising n*(k) when decrements are
// blocked. Processes degrees in decreasing order; within an adjustment only
// columns in the initial disequilibrium set D (plus degree 1) are touched.
func (s *jdmState) adjustJDM(mmin *dkseries.JDM, r *rand.Rand) error {
	kmax := s.dv.KMax()
	// D = {k : s(k) != s*(k)} ∪ {1}, iterated in decreasing order.
	var d []int // ascending
	for k := 1; k <= kmax; k++ {
		if k == 1 || s.jdm.RowSum(k) != k*s.dv[k] {
			d = append(d, k)
		}
	}

	steps := 0
	var cands []int
	for di := len(d) - 1; di >= 0; di-- {
		k := d[di]
		sk := func() int { return s.jdm.RowSum(k) }
		sStar := func() int { return k * s.dv[k] }
		if k == 1 && (sStar()-sk())%2 != 0 {
			s.dv[1]++ // lines 2-3: make |s(1)-s*(1)| even
		}
		for sk() != sStar() {
			steps++
			if steps > maxAdjustSteps {
				return fmt.Errorf("core: Algorithm 3 exceeded %d steps at degree %d (s=%d, s*=%d)",
					maxAdjustSteps, k, sk(), sStar())
			}
			if sk() < sStar() {
				// Increase branch (lines 5-9).
				excludeSelf := sk() == sStar()-1
				cands = cands[:0]
				best := math.Inf(1)
				mh, row := s.mHat[k], s.jdm.Row(k)
				for _, kp := range d {
					if kp > k {
						break
					}
					if kp == k && excludeSelf {
						continue
					}
					delta := deltaAdd(seekMHat(&mh, kp), row.Seek(kp), +1)
					if delta < best {
						best = delta
						cands = append(cands[:0], kp)
					} else if delta == best {
						cands = append(cands, kp)
					}
				}
				if len(cands) == 0 {
					return fmt.Errorf("core: Algorithm 3: no increase candidate for degree %d", k)
				}
				kp := cands[r.IntN(len(cands))]
				s.jdm.Add(k, kp, 1)
			} else {
				// Decrease branch (lines 10-20).
				excludeSelf := sk() == sStar()+1
				cands = cands[:0]
				best := math.Inf(1)
				mh, row := s.mHat[k], s.jdm.Row(k)
				var floor dkseries.JDMRow // mmin's row; nil mmin is all-zero
				if mmin != nil {
					floor = mmin.Row(k)
				}
				for _, kp := range d {
					if kp > k {
						break
					}
					if kp == k && excludeSelf {
						continue
					}
					cur := row.Seek(kp)
					if cur <= floor.Seek(kp) {
						continue
					}
					delta := deltaAdd(seekMHat(&mh, kp), cur, -1)
					if delta < best {
						best = delta
						cands = append(cands[:0], kp)
					} else if delta == best {
						cands = append(cands, kp)
					}
				}
				if len(cands) > 0 {
					kp := cands[r.IntN(len(cands))]
					s.jdm.Add(k, kp, -1)
				} else if k == 1 {
					s.dv[1] += 2 // keep |s(1)-s*(1)| even (line 18)
				} else {
					s.dv[k]++ // line 20
				}
			}
		}
	}
	return nil
}

// modifyJDM implements Algorithm 4: raise m*(k1,k2) up to the subgraph's
// m'(k1,k2) (JDM-4), compensating each increment by decrementing another
// cell in row k1 and row k2 (where possible above m') and restoring the
// affected rows with a final increment, so that JDM-3 violations and edge
// inflation are minimized.
//
// Only nonzero cells can matter: a cell with m'(k1,k2) = 0 never needs
// raising, and a decrement candidate needs m*(row,k') > m'(row,k') >= 0.
// So the outer loop walks the nonzero cells of m' and pickDecrement the
// nonzero cells of row m*(row, .), both in the ascending order of a scan
// over every degree pair, which keeps the candidate lists, and hence every
// RNG draw, those of the full scan.
func (s *jdmState) modifyJDM(mPrime *dkseries.JDM, r *rand.Rand) {
	var cands []int
	// pickDecrement finds k' with m*(row,k') > m'(row,k') minimizing
	// Delta-, excluding k' in {x1, x2}; returns -1 if none.
	pickDecrement := func(row, x1, x2 int) int {
		best := math.Inf(1)
		cands = cands[:0]
		mh, floor := s.mHat[row], mPrime.Row(row)
		s.jdm.IterRow(row, func(kp, cur int) bool {
			if kp == x1 || kp == x2 || cur <= floor.Seek(kp) {
				return true
			}
			delta := deltaAdd(seekMHat(&mh, kp), cur, -1)
			if delta < best {
				best = delta
				cands = append(cands[:0], kp)
			} else if delta == best {
				cands = append(cands, kp)
			}
			return true
		})
		if len(cands) == 0 {
			return -1
		}
		return cands[r.IntN(len(cands))]
	}

	mPrime.IterCells(func(k1, k2, want int) bool {
		for s.jdm.Get(k1, k2) < want {
			s.jdm.Add(k1, k2, 1)
			// Retain s(k1): decrement m*(k1,k3), k3 not in {k1,k2}.
			k3 := pickDecrement(k1, k1, k2)
			if k3 >= 0 {
				s.jdm.Add(k1, k3, -1)
			}
			// Retain s(k2): decrement m*(k2,k4), k4 not in {k1,k2}.
			k4 := pickDecrement(k2, k1, k2)
			if k4 >= 0 {
				s.jdm.Add(k2, k4, -1)
			}
			// Restore s(k3) and s(k4) together (lines 18-21).
			if k3 >= 0 && k4 >= 0 {
				s.jdm.Add(k3, k4, 1)
			}
		}
		return true
	})
}

// buildTargetJDM runs phase 2 end to end. The degree vector dv is mutated
// in place when the adjustment needs extra nodes. sub and target degrees
// are nil for Gjoka et al.'s method (no modification step).
func buildTargetJDM(est *estimate.Estimates, dv dkseries.DegreeVector, sub *sampling.Subgraph, targetDeg []int, r *rand.Rand) (*dkseries.JDM, error) {
	s := initJDM(est, dv)
	if err := s.adjustJDM(nil, r); err != nil {
		return nil, err
	}
	if sub != nil {
		mPrime := dkseries.JDMFromBase(sub.Edges, targetDeg, dv.KMax())
		s.modifyJDM(mPrime, r)
		if err := s.adjustJDM(mPrime, r); err != nil {
			return nil, err
		}
		if err := s.jdm.CheckAgainstBase(mPrime); err != nil {
			return nil, fmt.Errorf("core: phase 2 violated JDM-4: %w", err)
		}
	}
	if err := s.jdm.Check(dv); err != nil {
		return nil, fmt.Errorf("core: phase 2 produced invalid JDM: %w", err)
	}
	return s.jdm, nil
}
