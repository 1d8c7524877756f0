package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// TestPhase2TargetsGolden pins the phase 1-3 output of Restore and
// RestoreGjoka (rewiring skipped) on several stand-in datasets, three
// crawl fractions and three seeds: SHA-256 over the target JDM cells in
// ascending (k, k') order, the target degree vector and the binary
// encoding of the built graph. The digests were recorded while the JDM was
// still a map, so any change to the JDM's storage or to the cell scans of
// Algorithms 3 and 4 must leave every byte and every RNG draw unchanged.
func TestPhase2TargetsGolden(t *testing.T) {
	want := map[string]string{
		"anybeat":    "a2ae4be6dc79e847a4c78921035f7b5fb64000f4bbeea008fbbe51d10e608f72",
		"brightkite": "9e077fef85f4f5d094fa41be1fe5881b37658166d53c28c82c135972158c6c2d",
		"epinions":   "539e43c29e16799359cf944ac11d2edb1af1786e732b77418753fb3fb9332b24",
		"livemocha":  "e2f768fb0b3b69d30221a2af8110bd00d17dcd865b58e7fe0b78c2e056c3e8fb",
	}
	for _, name := range []string{"anybeat", "brightkite", "epinions", "livemocha"} {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build(0.02, PipelineRand(11))
		h := sha256.New()
		var word [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
		for _, frac := range []float64{0.05, 0.1, 0.2} {
			for seed := uint64(1); seed <= 3; seed++ {
				c := crawlOn(t, g, frac, seed)
				for _, restore := range []func(*sampling.Crawl, Options) (*Result, error){Restore, RestoreGjoka} {
					res, err := restore(c, Options{SkipRewiring: true, Rand: PipelineRand(seed)})
					if err != nil {
						t.Fatalf("%s frac=%v seed=%d: %v", name, frac, seed, err)
					}
					var cells [][3]int
					res.TargetJDM.IterCells(func(k, kp, n int) bool {
						cells = append(cells, [3]int{k, kp, n})
						return true
					})
					sort.Slice(cells, func(i, j int) bool {
						if cells[i][0] != cells[j][0] {
							return cells[i][0] < cells[j][0]
						}
						return cells[i][1] < cells[j][1]
					})
					put(len(cells))
					for _, c := range cells {
						put(c[0])
						put(c[1])
						put(c[2])
					}
					put(len(res.TargetDV))
					for _, n := range res.TargetDV {
						put(n)
					}
					bin, err := graph.AppendBinary(nil, res.Graph)
					if err != nil {
						t.Fatal(err)
					}
					put(len(bin))
					h.Write(bin)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: phase 1-3 digest = %s, want %s", name, got, want[name])
		}
	}
}
