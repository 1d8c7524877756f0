package estimate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sort"
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/sampling"
)

// goldenGraphs are the inputs of TestEstimatorBitsGolden: every generator
// in internal/gen, small enough to run in milliseconds. The configuration
// model and the degree-corrected SBM keep their multi-edges and
// self-loops, so the crawls carry repeated entries even before they are
// perturbed.
var goldenGraphs = []struct {
	name  string
	build func() *graph.Graph
}{
	{"gnm", func() *graph.Graph { return lcc(gen.ErdosRenyiGNM(500, 2000, rng(11))) }},
	{"ba", func() *graph.Graph { return lcc(gen.BarabasiAlbert(600, 3, rng(12))) }},
	{"holmekim", func() *graph.Graph { return lcc(gen.HolmeKim(800, 4, 0.5, rng(13))) }},
	{"holmekim-triad", func() *graph.Graph { return lcc(gen.HolmeKim(400, 2, 0.9, rng(14))) }},
	{"ws", func() *graph.Graph { return lcc(gen.WattsStrogatz(500, 6, 0.1, rng(15))) }},
	{"ws-rewired", func() *graph.Graph { return lcc(gen.WattsStrogatz(300, 4, 0.3, rng(16))) }},
	{"config", func() *graph.Graph {
		g, _ := gen.ConfigurationModel(gen.PowerLawDegrees(700, 2.3, 2, 60, rng(17)), rng(18)).LargestComponent()
		return g
	}},
	{"planted", func() *graph.Graph {
		return lcc(gen.PlantedPartition([]int{200, 200, 200}, 0.05, 0.005, rng(19)))
	}},
	{"dcsbm", func() *graph.Graph {
		deg := gen.PowerLawDegrees(600, 2.1, 2, 40, rng(20))
		comm := make([]int, len(deg))
		for i := range comm {
			comm[i] = i % 4
		}
		g, _ := gen.DegreeCorrectedSBM(deg, comm, 0.8, rng(21)).LargestComponent()
		return g
	}},
	{"anybeat", func() *graph.Graph { return gen.Datasets[0].Build(0.05, rng(22)) }},
	{"brightkite", func() *graph.Graph { return gen.Datasets[1].Build(0.01, rng(23)) }},
	{"epinions", func() *graph.Graph { return gen.Datasets[2].Build(0.01, rng(24)) }},
}

// goldenDigests pins, per goldenGraphs entry, the estimator output bits of
// six crawls: fractions 0.02, 0.1 and 0.3, each as crawled and perturbed.
// Restorations are seeded from these estimates, so a mismatch means an
// estimator's arithmetic or accumulation order changed; re-record only
// for a deliberate change of the estimates.
var goldenDigests = map[string]string{
	"gnm":            "ac88f22bae5b27c9ccb27c2bce85093b532813ab6a268ee0b7d8a8c9df0e856d",
	"ba":             "0dd83dad90bf9e607c12f925bd8419650bf2f886e44ff7827764a34e014ab661",
	"holmekim":       "1865bdba9538a7b4fc247d5e32d9eb9b9127e65dca0d06807a98c7cbb58a1d5e",
	"holmekim-triad": "dd3aec48055972b3e5675d4f287702d49819352393d379614aace09fdfabcd1b",
	"ws":             "06b15bdd836433de6a78c252ada107a7f962cd8972066b96cfd9b73636939e18",
	"ws-rewired":     "0abb8ce8fcab47d30a2e5e42dc005785d9803054a3be4612d7292f87994b542e",
	"config":         "a2fac89ef70e089fe13968043df10ee0488021946580906c4d45f3520f02e712",
	"planted":        "713677e6a2df219c5386ab5e3447f6a324207a79524b9241684817385fd8811c",
	"dcsbm":          "2db7f686641f43de87e888404e770c6e5da00e0676df62b7e64c3ab06230d452",
	"anybeat":        "702f432cfb9855e63ba5a1048f8590658c673805ec8e5ac405dc5845e8050bd8",
	"brightkite":     "28e5f527882a73f4c7612786e3c4c75fd305109e5c74f7128fbc232f4089a25b",
	"epinions":       "85eb470fb2bfef70d17af169bbac492b7b8c9f4e788449eddc26381e7156d0de",
}

func lcc(g *graph.Graph) *graph.Graph {
	clean, _ := graph.Preprocess(g)
	return clean
}

// perturbCrawl returns a copy of c whose neighbor lists disagree with the
// graph the way real social APIs do: every third queried node lists a
// neighbor twice, and every fifth (with at least two entries) drops one.
// It prefers queried neighbors, so the repeated and one-sided entries land
// inside the queried-node adjacency the pair estimators read.
func perturbCrawl(c *sampling.Crawl) *sampling.Crawl {
	lists := make([][]int, c.NumQueried())
	for i, u := range c.Queried() {
		nb := append([]int(nil), c.Lists()[i]...)
		pick := 0
		for j, v := range nb {
			if slices.Contains(c.Queried(), v) && v != u {
				pick = j
				break
			}
		}
		switch {
		case i%3 == 1 && len(nb) > 0:
			nb = append(nb, nb[pick])
		case i%5 == 2 && len(nb) > 1:
			nb = append(nb[:pick], nb[pick+1:]...)
		}
		lists[i] = nb
	}
	return mustNewCrawl(c.Queried(), lists, c.Walk())
}

// mustNewCrawl is sampling.NewCrawl on input known to be valid.
func mustNewCrawl(queried []int, lists [][]int, walk []int) *sampling.Crawl {
	c, err := sampling.NewCrawl(queried, lists, walk)
	if err != nil {
		panic(err)
	}
	return c
}

func hashUint(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func hashFloat(h hash.Hash, x float64) { hashUint(h, math.Float64bits(x)) }

func hashInt(h hash.Hash, x int) { hashUint(h, uint64(x)) }

func hashDegreeMap(h hash.Hash, m map[int]float64) {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	hashInt(h, len(ks))
	for _, k := range ks {
		hashInt(h, k)
		hashFloat(h, m[k])
	}
}

func hashPairMap(h hash.Hash, m map[DegreePair]float64) {
	ks := make([]DegreePair, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].K != ks[j].K {
			return ks[i].K < ks[j].K
		}
		return ks[i].Kp < ks[j].Kp
	})
	hashInt(h, len(ks))
	for _, k := range ks {
		hashInt(h, k.K)
		hashInt(h, k.Kp)
		hashFloat(h, m[k])
	}
}

func hashInterval(h hash.Hash, iv Interval, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	hashFloat(h, iv.Estimate)
	hashFloat(h, iv.StdErr)
	hashFloat(h, iv.Lo)
	hashFloat(h, iv.Hi)
	hashInt(h, iv.Batches)
}

// hashEstimates feeds every estimator's output bits for one walk into h.
func hashEstimates(h hash.Hash, w *Walk) {
	e := All(w)
	hashFloat(h, e.N)
	hashInt(h, e.Collisions)
	hashFloat(h, e.AvgDeg)
	hashDegreeMap(h, e.DegreeDist)
	hashPairMap(h, e.JDD)
	hashDegreeMap(h, e.Clustering)
	hashInt(h, e.Lag)
	hashPairMap(h, w.JDDIE(e.N, e.AvgDeg, e.Lag))
	hashFloat(h, w.GlobalClustering())
	cc, err := w.GlobalClusteringInterval(0)
	hashInterval(h, cc, err)
	nn, err := w.NumNodesInterval(0)
	hashInterval(h, nn, err)
}

func TestEstimatorBitsGolden(t *testing.T) {
	for gi, gc := range goldenGraphs {
		g := gc.build()
		h := sha256.New()
		for fi, frac := range []float64{0.02, 0.1, 0.3} {
			c, err := sampling.RandomWalk(sampling.NewGraphAccess(g), 0, frac, rng(uint64(100*gi+fi)))
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			for _, crawl := range []*sampling.Crawl{c, perturbCrawl(c)} {
				w, err := NewWalk(crawl)
				if err != nil {
					t.Fatalf("%s frac %v: %v", gc.name, frac, err)
				}
				hashEstimates(h, w)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := goldenDigests[gc.name]; got != want {
			t.Errorf("%s (n=%d m=%d): estimator digest %s, want %s", gc.name, g.N(), g.M(), got, want)
		}
	}
}
