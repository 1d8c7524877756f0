package dkseries

import (
	"math/rand/v2"
	"testing"
)

// adjEmpty marks an unoccupied key slot. Node IDs must be >= 0, so -1 is free.
const adjEmpty int32 = -1

// adjMinCap is the initial slot count of a row on its first insertion.
const adjMinCap = 8

// adjRow is one node's open-addressing table. keys and counts are parallel
// slices whose length is a power of two; n is the occupied-slot count.
type adjRow struct {
	keys   []int32
	counts []int32
	n      int32
}

// adjSet is the compact open-addressing adjacency multiset behind the
// frozen serial rewiring reference (rewireSerialRef in
// rewire_serialref_test.go), over dense node IDs 0..NumNodes()-1: for
// each node a flat hash table of (neighbor, multiplicity) int32 slots with
// linear probing and backward-shift deletion. Rows are two parallel int32
// slices, so lookups touch one cache line, iteration is a linear scan,
// and none of Get, Inc, Dec or Iterate allocates after the row has grown
// to its working size. It was the rewiring engine's adjacency before the
// sorted rows of rewire_sharded.go; BenchmarkRewire/adjset keeps its cost.
//
// It stores one directed row per node; callers maintaining an undirected
// adjacency call Inc(u,v) and Inc(v,u) symmetrically. Get, Inc and Dec are
// expected O(1) (the tables stay under a 3/4 load factor); Iterate and
// Row are O(capacity) linear scans. The zero-size adjSet (newAdjSet(0)) is
// valid and empty. An adjSet is safe for concurrent reads but not for
// concurrent mutation.
type adjSet struct {
	rows []adjRow
}

// newAdjSet returns an adjSet with n empty rows.
func newAdjSet(n int) *adjSet {
	return &adjSet{rows: make([]adjRow, n)}
}

// newAdjSetSized returns an adjSet whose rows are pre-sized for the given
// distinct-neighbor upper bounds, carved out of one shared arena: three
// allocations total instead of two per row. A row whose hint is never
// exceeded does no further allocation; exceeding a hint falls back to
// per-row growth. Hints of zero leave the row unallocated until first use.
func newAdjSetSized(hints []int) *adjSet {
	s := &adjSet{rows: make([]adjRow, len(hints))}
	total := 0
	caps := make([]int, len(hints))
	for u, h := range hints {
		if h <= 0 {
			continue
		}
		// Capacity cap > 4h/3 keeps h entries under the 3/4 load factor.
		c := adjMinCap
		for c*3 <= h*4 {
			c *= 2
		}
		caps[u] = c
		total += c
	}
	keys := make([]int32, total)
	for i := range keys {
		keys[i] = adjEmpty
	}
	counts := make([]int32, total)
	off := 0
	for u, c := range caps {
		if c == 0 {
			continue
		}
		s.rows[u].keys = keys[off : off+c : off+c]
		s.rows[u].counts = counts[off : off+c : off+c]
		off += c
	}
	return s
}

// NumNodes returns the number of rows.
func (s *adjSet) NumNodes() int { return len(s.rows) }

// Len returns the number of distinct neighbors in u's row.
func (s *adjSet) Len(u int) int { return int(s.rows[u].n) }

// hash mixes a key for power-of-two tables. Fibonacci multiply plus a
// fold of the high bits keeps low-bit-only masks well distributed.
func adjHash(k int32) uint32 {
	h := uint32(k) * 2654435769
	return h ^ h>>16
}

// Get returns the multiplicity of v in u's row (0 if absent).
func (s *adjSet) Get(u, v int) int {
	r := &s.rows[u]
	if r.n == 0 {
		return 0
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := adjHash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			return int(r.counts[i])
		case adjEmpty:
			return 0
		}
	}
}

// Inc increments the multiplicity of v in u's row and returns the new
// count, growing (doubling and rehashing) the row when it would exceed a
// 3/4 load factor — amortized O(1), allocation-free at working size.
func (s *adjSet) Inc(u, v int) int {
	r := &s.rows[u]
	if len(r.keys) == 0 || int(r.n) >= len(r.keys)*3/4 {
		r.grow()
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := adjHash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			r.counts[i]++
			return int(r.counts[i])
		case adjEmpty:
			r.keys[i] = key
			r.counts[i] = 1
			r.n++
			return 1
		}
	}
}

// Dec decrements the multiplicity of v in u's row and returns the new
// count; the slot is deleted (backward-shift) when the count reaches zero.
// Decrementing an absent pair panics: it indicates a caller bookkeeping bug.
func (s *adjSet) Dec(u, v int) int {
	r := &s.rows[u]
	if r.n == 0 {
		panic("adjset: Dec of absent pair")
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := adjHash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			r.counts[i]--
			if c := r.counts[i]; c > 0 {
				return int(c)
			}
			r.delete(i, mask)
			return 0
		case adjEmpty:
			panic("adjset: Dec of absent pair")
		}
	}
}

// delete removes the entry at slot i via backward-shift deletion, keeping
// every remaining entry reachable from its home slot without tombstones.
func (r *adjRow) delete(i, mask uint32) {
	r.n--
	for {
		r.keys[i] = adjEmpty
		j := i
		for {
			j = (j + 1) & mask
			k := r.keys[j]
			if k == adjEmpty {
				return
			}
			// h in (i, j] cyclically: the probe path from h to j does not
			// cross the hole at i, so the entry stays put.
			h := adjHash(k) & mask
			if i <= j {
				if i < h && h <= j {
					continue
				}
			} else if i < h || h <= j {
				continue
			}
			r.keys[i], r.counts[i] = k, r.counts[j]
			i = j
			break
		}
	}
}

// grow rehashes u's row into a table of twice the capacity.
func (r *adjRow) grow() {
	newCap := adjMinCap
	if len(r.keys) > 0 {
		newCap = len(r.keys) * 2
	}
	keys := make([]int32, newCap)
	for i := range keys {
		keys[i] = adjEmpty
	}
	counts := make([]int32, newCap)
	mask := uint32(newCap - 1)
	for i, k := range r.keys {
		if k == adjEmpty {
			continue
		}
		j := adjHash(k) & mask
		for keys[j] != adjEmpty {
			j = (j + 1) & mask
		}
		keys[j], counts[j] = k, r.counts[i]
	}
	r.keys, r.counts = keys, counts
}

// Row exposes u's raw slot arrays for allocation-free hot-loop iteration:
// parallel keys/counts slices where keys[i] == adjEmpty marks a vacant slot.
// The slices are owned by the adjSet and must not be mutated; any Inc/Dec on
// u invalidates them.
func (s *adjSet) Row(u int) (keys, counts []int32) {
	r := &s.rows[u]
	return r.keys, r.counts
}

// Iterate calls fn for every (neighbor, count) pair in u's row, in slot
// order, stopping early if fn returns false. The row must not be mutated
// during iteration. Iterate itself does not allocate, and a non-escaping
// closure passed here stays on the caller's stack.
func (s *adjSet) Iterate(u int, fn func(v, count int32) bool) {
	r := &s.rows[u]
	for i, k := range r.keys {
		if k == adjEmpty {
			continue
		}
		if !fn(k, r.counts[i]) {
			return
		}
	}
}

func TestAdjsetBasicIncGetDec(t *testing.T) {
	s := newAdjSet(3)
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes: %d want 3", s.NumNodes())
	}
	if got := s.Get(0, 1); got != 0 {
		t.Fatalf("Get on empty adjRow: %d want 0", got)
	}
	if got := s.Inc(0, 1); got != 1 {
		t.Fatalf("first Inc: %d want 1", got)
	}
	if got := s.Inc(0, 1); got != 2 {
		t.Fatalf("second Inc: %d want 2", got)
	}
	if got := s.Get(0, 1); got != 2 {
		t.Fatalf("Get: %d want 2", got)
	}
	if got := s.Len(0); got != 1 {
		t.Fatalf("Len: %d want 1", got)
	}
	if got := s.Dec(0, 1); got != 1 {
		t.Fatalf("Dec: %d want 1", got)
	}
	if got := s.Dec(0, 1); got != 0 {
		t.Fatalf("Dec to zero: %d want 0", got)
	}
	if got, l := s.Get(0, 1), s.Len(0); got != 0 || l != 0 {
		t.Fatalf("after delete: Get=%d Len=%d want 0,0", got, l)
	}
}

func TestAdjsetDecAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dec of absent pair must panic")
		}
	}()
	s := newAdjSet(1)
	s.Inc(0, 2)
	s.Dec(0, 3)
}

// TestAdjsetDifferentialVsMap drives an adjSet and a reference map with the same
// random Inc/Dec stream and checks full agreement, exercising growth and
// backward-shift deletion across many collision patterns.
func TestAdjsetDifferentialVsMap(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	const n = 5
	const keyspace = 200
	s := newAdjSet(n)
	ref := make([]map[int32]int32, n)
	for i := range ref {
		ref[i] = make(map[int32]int32)
	}
	for step := 0; step < 200000; step++ {
		u := r.IntN(n)
		v := int32(r.IntN(keyspace))
		if r.IntN(3) == 0 && ref[u][v] > 0 {
			ref[u][v]--
			got := s.Dec(u, int(v))
			if got != int(ref[u][v]) {
				t.Fatalf("step %d: Dec(%d,%d)=%d want %d", step, u, v, got, ref[u][v])
			}
			if ref[u][v] == 0 {
				delete(ref[u], v)
			}
		} else {
			ref[u][v]++
			if got := s.Inc(u, int(v)); got != int(ref[u][v]) {
				t.Fatalf("step %d: Inc(%d,%d)=%d want %d", step, u, v, got, ref[u][v])
			}
		}
	}
	for u := 0; u < n; u++ {
		if s.Len(u) != len(ref[u]) {
			t.Fatalf("node %d: Len=%d want %d", u, s.Len(u), len(ref[u]))
		}
		for v := int32(0); v < keyspace; v++ {
			if got := s.Get(u, int(v)); got != int(ref[u][v]) {
				t.Fatalf("node %d: Get(%d)=%d want %d", u, v, got, ref[u][v])
			}
		}
		// Iterate must visit each pair exactly once with the right count.
		seen := make(map[int32]int32)
		s.Iterate(u, func(v, c int32) bool {
			if _, dup := seen[v]; dup {
				t.Fatalf("node %d: Iterate visited %d twice", u, v)
			}
			seen[v] = c
			return true
		})
		if len(seen) != len(ref[u]) {
			t.Fatalf("node %d: Iterate saw %d pairs want %d", u, len(seen), len(ref[u]))
		}
		for v, c := range ref[u] {
			if seen[v] != c {
				t.Fatalf("node %d: Iterate count for %d: %d want %d", u, v, seen[v], c)
			}
		}
	}
}

func TestAdjsetIterateEarlyStop(t *testing.T) {
	s := newAdjSet(1)
	for v := 0; v < 10; v++ {
		s.Inc(0, v)
	}
	calls := 0
	s.Iterate(0, func(v, c int32) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop after %d calls want 3", calls)
	}
}

func TestAdjsetRowSlotsMatchIterate(t *testing.T) {
	s := newAdjSet(1)
	for v := 0; v < 50; v += 3 {
		s.Inc(0, v)
		s.Inc(0, v)
	}
	keys, counts := s.Row(0)
	occupied := 0
	for i, k := range keys {
		if k == adjEmpty {
			continue
		}
		occupied++
		if got := s.Get(0, int(k)); got != int(counts[i]) {
			t.Fatalf("slot %d: count %d disagrees with Get %d", i, counts[i], got)
		}
	}
	if occupied != s.Len(0) {
		t.Fatalf("Row occupancy %d != Len %d", occupied, s.Len(0))
	}
}

// TestAdjsetDeleteKeepsProbeChainsReachable hammers one row with collisions and
// interleaved deletions, then verifies every surviving key is reachable.
func TestAdjsetDeleteKeepsProbeChainsReachable(t *testing.T) {
	s := newAdjSet(1)
	live := make(map[int]bool)
	r := rand.New(rand.NewPCG(3, 9))
	for step := 0; step < 50000; step++ {
		v := r.IntN(64)
		if live[v] {
			s.Dec(0, v)
			delete(live, v)
		} else {
			s.Inc(0, v)
			live[v] = true
		}
		if step%977 == 0 {
			for w := range live {
				if s.Get(0, w) != 1 {
					t.Fatalf("step %d: live key %d unreachable", step, w)
				}
			}
		}
	}
}

func BenchmarkAdjsetIncGetDec(b *testing.B) {
	s := newAdjSet(1)
	r := rand.New(rand.NewPCG(1, 1))
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = r.IntN(1 << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		s.Inc(0, k)
		s.Get(0, k)
		s.Dec(0, k)
	}
}
