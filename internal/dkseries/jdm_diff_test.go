package dkseries

import (
	"strings"
	"testing"
)

// refJDM is the plain reference model of a JDM: canonical keys in a map,
// zero cells absent.
type refJDM map[[2]int]int

func (m refJDM) add(k, kp, delta int) {
	ky := [2]int{min(k, kp), max(k, kp)}
	if m[ky]+delta == 0 {
		delete(m, ky)
	} else {
		m[ky] += delta
	}
}

func (m refJDM) get(k, kp int) int { return m[[2]int{min(k, kp), max(k, kp)}] }

// checkAgainstRef compares every observable of j with the reference: Get
// (both argument orders, out-of-range degrees included), RowSum, NumCells,
// TotalEdges, the order and content of IterCells and of every IterRow.
func checkAgainstRef(t *testing.T, j *JDM, ref refJDM) {
	t.Helper()
	kmax := j.KMax()
	total := 0
	for _, c := range ref {
		total += c
	}
	if j.NumCells() != len(ref) || j.TotalEdges() != total {
		t.Fatalf("NumCells/TotalEdges = %d/%d, want %d/%d", j.NumCells(), j.TotalEdges(), len(ref), total)
	}
	for k := -1; k <= kmax+1; k++ {
		sum := 0
		for kp := -1; kp <= kmax+1; kp++ {
			want := ref.get(k, kp)
			if got := j.Get(k, kp); got != want {
				t.Fatalf("Get(%d,%d) = %d, want %d", k, kp, got, want)
			}
			if got := j.Get(kp, k); got != want {
				t.Fatalf("Get(%d,%d) = %d, want symmetric %d", kp, k, got, want)
			}
			if k == kp {
				sum += 2 * want
			} else {
				sum += want
			}
		}
		var row [][2]int
		j.IterRow(k, func(kp, c int) bool {
			row = append(row, [2]int{kp, c})
			return true
		})
		nz := 0
		for i, e := range row {
			if i > 0 && e[0] <= row[i-1][0] {
				t.Fatalf("IterRow(%d) not strictly ascending: %v", k, row)
			}
			if e[1] == 0 || e[1] != ref.get(k, e[0]) {
				t.Fatalf("IterRow(%d) yields m(%d,%d) = %d, want nonzero %d", k, k, e[0], e[1], ref.get(k, e[0]))
			}
		}
		for kp := 0; kp <= kmax; kp++ {
			if ref.get(k, kp) != 0 {
				nz++
			}
		}
		if len(row) != nz {
			t.Fatalf("IterRow(%d) yields %d cells, want %d", k, len(row), nz)
		}
		if k >= 0 && k <= kmax && j.RowSum(k) != sum {
			t.Fatalf("RowSum(%d) = %d, want %d", k, j.RowSum(k), sum)
		}
	}
	var cells [][3]int
	j.IterCells(func(k, kp, c int) bool {
		cells = append(cells, [3]int{k, kp, c})
		return true
	})
	if len(cells) != len(ref) {
		t.Fatalf("IterCells yields %d cells, want %d", len(cells), len(ref))
	}
	for i, c := range cells {
		if c[0] > c[1] {
			t.Fatalf("IterCells yields non-canonical cell %v", c)
		}
		if i > 0 {
			p := cells[i-1]
			if c[0] < p[0] || c[0] == p[0] && c[1] <= p[1] {
				t.Fatalf("IterCells not strictly ascending: %v after %v", c, p)
			}
		}
		if c[2] != ref.get(c[0], c[1]) {
			t.Fatalf("IterCells m(%d,%d) = %d, want %d", c[0], c[1], c[2], ref.get(c[0], c[1]))
		}
	}
}

// TestJDMDifferential drives random Add sequences — diagonal cells,
// decrements to zero, re-adds of removed cells — against the map
// reference, checking every observable along the way, then Clone
// independence and the CheckAgainstBase verdict.
func TestJDMDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng(seed)
		kmax := 1 + r.IntN(12)
		j, ref := NewJDM(kmax), refJDM{}
		for step := 0; step < 300; step++ {
			k, kp := r.IntN(kmax+1), r.IntN(kmax+1)
			if r.IntN(5) == 0 {
				kp = k
			}
			delta := r.IntN(4) + 1
			if cur := ref.get(k, kp); cur > 0 && r.IntN(2) == 0 {
				// Decrement, to zero half of the time.
				delta = -cur
				if r.IntN(2) == 0 {
					delta = -(r.IntN(cur) + 1)
				}
			}
			j.Add(k, kp, delta)
			ref.add(k, kp, delta)
			if step%7 == 0 {
				checkAgainstRef(t, j, ref)
			}
		}
		checkAgainstRef(t, j, ref)

		// Clone is equal, then deep in both directions.
		c, cref := j.Clone(), refJDM{}
		for ky, v := range ref {
			cref[ky] = v
		}
		checkAgainstRef(t, c, cref)
		c.Add(0, kmax, 1)
		cref.add(0, kmax, 1)
		j.Add(kmax, kmax, 3)
		ref.add(kmax, kmax, 3)
		checkAgainstRef(t, j, ref)
		checkAgainstRef(t, c, cref)

		// CheckAgainstBase agrees with a cellwise comparison.
		base := NewJDM(kmax)
		bref := refJDM{}
		for i := 0; i < 5; i++ {
			k, kp := r.IntN(kmax+1), r.IntN(kmax+1)
			d := r.IntN(3) + 1
			base.Add(k, kp, d)
			bref.add(k, kp, d)
		}
		wantOK := true
		for k := 0; k <= kmax; k++ {
			for kp := k; kp <= kmax; kp++ {
				wantOK = wantOK && ref.get(k, kp) >= bref.get(k, kp)
			}
		}
		if err := j.CheckAgainstBase(base); (err == nil) != wantOK {
			t.Fatalf("seed %d: CheckAgainstBase = %v, want ok=%v", seed, err, wantOK)
		}
		if err := j.CheckAgainstBase(j.Clone()); err != nil {
			t.Fatalf("seed %d: matrix fails JDM-4 against its own clone: %v", seed, err)
		}
	}
}

// TestJDMNegativePanicKeepsState: a decrement past zero panics and leaves
// the matrix as it was, for a present cell and an absent one.
func TestJDMNegativePanicKeepsState(t *testing.T) {
	j := NewJDM(4)
	j.Add(1, 3, 2)
	for _, tc := range []struct{ k, kp, delta int }{{3, 1, -3}, {2, 2, -1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "would become") {
					t.Fatalf("Add(%d,%d,%d) panic = %q, want a negative-cell panic", tc.k, tc.kp, tc.delta, msg)
				}
			}()
			j.Add(tc.k, tc.kp, tc.delta)
		}()
	}
	checkAgainstRef(t, j, refJDM{{1, 3}: 2})
}
