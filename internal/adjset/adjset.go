// Package adjset implements a compact open-addressing adjacency multiset:
// for each node a flat hash table of (neighbor, multiplicity) int32 slots
// with linear probing and backward-shift deletion. It replaces the
// []map[int]int / map[int]map[int]uint8 rows that dominated the rewiring
// and estimation hot paths: rows are two parallel int32 slices, so lookups
// touch one cache line, iteration is a linear scan, and none of Get, Inc,
// Dec or Iterate allocates after the row has grown to its working size.
//
// The multiset stores one directed row per node; callers maintaining an
// undirected adjacency call Inc(u,v) and Inc(v,u) symmetrically, mirroring
// the convention of the map-based rows it replaces.
//
// Get, Inc and Dec are expected O(1) (the tables stay under a 3/4 load
// factor); Iterate and Row are O(capacity) linear scans.
//
// The Set is test support only: it backs the frozen serial rewiring
// reference (rewireSerialRef in internal/dkseries's tests) that the
// production engine is compared against, and no production package
// imports it (make lint enforces this). Production code reads three
// adjacency forms instead: a graph.Graph's neighbor lists, its graph.CSR
// snapshot, and the rewiring engine's sorted rows (sortedRows in
// internal/dkseries/rewire_sharded.go).
package adjset

// Empty marks an unoccupied key slot. Node IDs must be >= 0, so -1 is free.
const Empty int32 = -1

// minCap is the initial slot count of a row on its first insertion.
const minCap = 8

// row is one node's open-addressing table. keys and counts are parallel
// slices whose length is a power of two; n is the occupied-slot count.
type row struct {
	keys   []int32
	counts []int32
	n      int32
}

// Set is a per-node adjacency multiset over dense node IDs 0..NumNodes()-1.
// The zero-size Set (New(0)) is valid and empty. A Set is safe for
// concurrent reads but not for concurrent mutation.
type Set struct {
	rows []row
}

// New returns a Set with n empty rows.
func New(n int) *Set {
	return &Set{rows: make([]row, n)}
}

// NewSized returns a Set whose rows are pre-sized for the given
// distinct-neighbor upper bounds, carved out of one shared arena: three
// allocations total instead of two per row. A row whose hint is never
// exceeded does no further allocation; exceeding a hint falls back to
// per-row growth. Hints of zero leave the row unallocated until first use.
func NewSized(hints []int) *Set {
	s := &Set{rows: make([]row, len(hints))}
	total := 0
	caps := make([]int, len(hints))
	for u, h := range hints {
		if h <= 0 {
			continue
		}
		// Capacity cap > 4h/3 keeps h entries under the 3/4 load factor.
		c := minCap
		for c*3 <= h*4 {
			c *= 2
		}
		caps[u] = c
		total += c
	}
	keys := make([]int32, total)
	for i := range keys {
		keys[i] = Empty
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
func (s *Set) NumNodes() int { return len(s.rows) }

// Len returns the number of distinct neighbors in u's row.
func (s *Set) Len(u int) int { return int(s.rows[u].n) }

// hash mixes a key for power-of-two tables. Fibonacci multiply plus a
// fold of the high bits keeps low-bit-only masks well distributed.
func hash(k int32) uint32 {
	h := uint32(k) * 2654435769
	return h ^ h>>16
}

// Get returns the multiplicity of v in u's row (0 if absent).
func (s *Set) Get(u, v int) int {
	r := &s.rows[u]
	if r.n == 0 {
		return 0
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := hash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			return int(r.counts[i])
		case Empty:
			return 0
		}
	}
}

// Inc increments the multiplicity of v in u's row and returns the new
// count, growing (doubling and rehashing) the row when it would exceed a
// 3/4 load factor — amortized O(1), allocation-free at working size.
func (s *Set) Inc(u, v int) int {
	r := &s.rows[u]
	if len(r.keys) == 0 || int(r.n) >= len(r.keys)*3/4 {
		r.grow()
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := hash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			r.counts[i]++
			return int(r.counts[i])
		case Empty:
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
func (s *Set) Dec(u, v int) int {
	r := &s.rows[u]
	if r.n == 0 {
		panic("adjset: Dec of absent pair")
	}
	mask := uint32(len(r.keys) - 1)
	key := int32(v)
	for i := hash(key) & mask; ; i = (i + 1) & mask {
		switch r.keys[i] {
		case key:
			r.counts[i]--
			if c := r.counts[i]; c > 0 {
				return int(c)
			}
			r.delete(i, mask)
			return 0
		case Empty:
			panic("adjset: Dec of absent pair")
		}
	}
}

// delete removes the entry at slot i via backward-shift deletion, keeping
// every remaining entry reachable from its home slot without tombstones.
func (r *row) delete(i, mask uint32) {
	r.n--
	for {
		r.keys[i] = Empty
		j := i
		for {
			j = (j + 1) & mask
			k := r.keys[j]
			if k == Empty {
				return
			}
			// h in (i, j] cyclically: the probe path from h to j does not
			// cross the hole at i, so the entry stays put.
			h := hash(k) & mask
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
func (r *row) grow() {
	newCap := minCap
	if len(r.keys) > 0 {
		newCap = len(r.keys) * 2
	}
	keys := make([]int32, newCap)
	for i := range keys {
		keys[i] = Empty
	}
	counts := make([]int32, newCap)
	mask := uint32(newCap - 1)
	for i, k := range r.keys {
		if k == Empty {
			continue
		}
		j := hash(k) & mask
		for keys[j] != Empty {
			j = (j + 1) & mask
		}
		keys[j], counts[j] = k, r.counts[i]
	}
	r.keys, r.counts = keys, counts
}

// Row exposes u's raw slot arrays for allocation-free hot-loop iteration:
// parallel keys/counts slices where keys[i] == Empty marks a vacant slot.
// The slices are owned by the Set and must not be mutated; any Inc/Dec on
// u invalidates them.
func (s *Set) Row(u int) (keys, counts []int32) {
	r := &s.rows[u]
	return r.keys, r.counts
}

// Iterate calls fn for every (neighbor, count) pair in u's row, in slot
// order, stopping early if fn returns false. The row must not be mutated
// during iteration. Iterate itself does not allocate, and a non-escaping
// closure passed here stays on the caller's stack.
func (s *Set) Iterate(u int, fn func(v, count int32) bool) {
	r := &s.rows[u]
	for i, k := range r.keys {
		if k == Empty {
			continue
		}
		if !fn(k, r.counts[i]) {
			return
		}
	}
}
