// Command experiment regenerates the paper's evaluation artifacts (Sec. VI)
// on the synthetic dataset stand-ins:
//
//	-exp fig3     Fig. 3   average L1 vs fraction queried (anybeat, brightkite, epinions)
//	-exp tables   Tables II-IV from one shared set of evaluations (six datasets)
//	-exp table2   Table II per-property L1 at 10% queried (slashdot, gowalla, livemocha)
//	-exp table3   Table III avg +- sd of L1 at 10% queried (six datasets)
//	-exp table4   Table IV generation times at 10% queried (six datasets)
//	-exp table5   Table V  YouTube stand-in at 1% queried
//	-exp fig4     Fig. 4   visualization SVGs for the anybeat stand-in
//	-exp walkers  proposed method under three random-walk variants (anybeat)
//	-exp all      fig3, tables, table5 and fig4
//
// Any other -exp value exits with status 2.
//
// The -scale, -runs and -rc flags trade fidelity for runtime; the paper's
// settings are -scale 1 -runs 10 -rc 500.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sgr/internal/core"
	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/harness"
	"sgr/internal/layout"
	"sgr/internal/parallel"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

type flags struct {
	exp      string
	scale    float64
	runs     int
	rc       float64
	seed     uint64
	outDir   string
	fracLo   float64
	fracHi   float64
	fracStep float64
	csv      bool
	workers  int
}

// saveCSV writes an evaluation as tidy CSV under the output directory.
func saveCSV(f flags, name string, ev *harness.Evaluation) error {
	if !f.csv {
		return nil
	}
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.outDir, name+".csv")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ev.WriteCSV(out, name); err != nil {
		out.Close()
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return out.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiment: ")
	var f flags
	flag.StringVar(&f.exp, "exp", "all", "fig3, tables, table2, table3, table4, table5, fig4, walkers, or all")
	flag.Float64Var(&f.scale, "scale", 0.05, "dataset node-count scale (paper: 1.0)")
	flag.IntVar(&f.runs, "runs", 3, "independent runs per configuration (paper: 10)")
	flag.Float64Var(&f.rc, "rc", 50, "rewiring attempt coefficient (paper: 500)")
	flag.Uint64Var(&f.seed, "seed", 1, "master random seed")
	flag.StringVar(&f.outDir, "out", "results", "output directory for SVGs")
	flag.Float64Var(&f.fracLo, "frac-lo", 0.02, "fig3: lowest fraction")
	flag.Float64Var(&f.fracHi, "frac-hi", 0.10, "fig3: highest fraction")
	flag.Float64Var(&f.fracStep, "frac-step", 0.02, "fig3: fraction step")
	flag.BoolVar(&f.csv, "csv", false, "also write tidy CSVs under -out")
	flag.IntVar(&f.workers, "workers", parallel.DefaultWorkers(),
		"worker pool width for the evaluation engine; results are identical at any value")
	flag.Parse()

	// "tables" renders Tables II-IV from one shared set of evaluations;
	// the individual table modes re-evaluate from scratch and are
	// therefore excluded from "all".
	experiments := []struct {
		name  string
		fn    func(flags) error
		inAll bool
	}{
		{"fig3", fig3, true},
		{"tables", tables, true},
		{"table2", table2, false},
		{"table3", table3, false},
		{"table4", table4, false},
		{"table5", table5, true},
		{"fig4", fig4, true},
		{"walkers", walkers, false},
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if !slices.Contains(names, f.exp) {
		fmt.Fprintf(os.Stderr, "experiment: unknown -exp %q (valid: %s)\n", f.exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, e := range experiments {
		if f.exp == e.name || (f.exp == "all" && e.inAll) {
			start := time.Now()
			if err := e.fn(f); err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
			fmt.Printf("[%s done in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		}
	}
}

// walkers compares the proposed method driven by different random-walk
// variants (the paper's suggested future-work combination): simple walk,
// non-backtracking walk, and frontier sampling, on the anybeat stand-in.
func walkers(f flags) error {
	g, err := buildDataset("anybeat", f.scale, f.seed)
	if err != nil {
		return err
	}
	fmt.Printf("Proposed method under different walk variants (avg L1 over 12 properties)\n")
	for _, w := range []harness.Walker{
		harness.WalkerSimple, harness.WalkerNonBacktracking, harness.WalkerFrontier,
	} {
		cfg := baseConfig(f)
		cfg.Walker = w
		cfg.Methods = []harness.Method{harness.MethodRW, harness.MethodProposed}
		ev, err := harness.Evaluate(g, cfg)
		if err != nil {
			return err
		}
		name := string(w)
		if name == "" {
			name = "simple"
		}
		fmt.Printf("%-10s proposed %.3f   rw-subgraph %.3f\n",
			name, ev.AvgL1(harness.MethodProposed), ev.AvgL1(harness.MethodRW))
	}
	return nil
}

// tables evaluates the six table datasets once and renders Tables II-IV
// from the shared evaluations (the paper's tables come from the same runs).
func tables(f flags) error {
	evals, err := evaluateSix(f)
	if err != nil {
		return err
	}
	for _, name := range []string{"slashdot", "gowalla", "livemocha"} {
		fmt.Print(harness.RenderPerProperty(name, evals[name]))
		fmt.Println()
	}
	fmt.Print(harness.RenderAvgSD(evals))
	fmt.Println()
	fmt.Print(harness.RenderTimes(evals))
	for name, ev := range evals {
		if err := saveCSV(f, name, ev); err != nil {
			return err
		}
	}
	return nil
}

func buildDataset(name string, scale float64, seed uint64) (*graph.Graph, error) {
	d, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0xd1b54a32))
	return d.Build(scale, r), nil
}

func baseConfig(f flags) harness.Config {
	return harness.Config{
		Fraction: 0.10,
		Runs:     f.runs,
		RC:       f.rc,
		Seed:     f.seed,
		Workers:  f.workers,
		// PropOpts.Workers stays unset: cells score serially and the
		// original graph at the pool width. Properties are bit-identical
		// at any worker count, so the tables never change with -workers.
		PropOpts: props.Options{ExactThreshold: 6000, Pivots: 800},
	}
}

func fig3(f flags) error {
	for _, name := range []string{"anybeat", "brightkite", "epinions"} {
		g, err := buildDataset(name, f.scale, f.seed)
		if err != nil {
			return err
		}
		// The sweep stays serial at the fraction level: each Evaluate
		// already fans its (run, method) cells across the -workers pool,
		// and nesting a second pool here would square the concurrency.
		// The original graph's properties are shared across the sweep.
		orig := baseConfig(f).ComputeOriginal(g)
		series := harness.Fig3Series{}
		methods := harness.AllMethods
		for frac := f.fracLo; frac <= f.fracHi+1e-9; frac += f.fracStep {
			cfg := baseConfig(f)
			cfg.Fraction = frac
			cfg.Original = orig
			ev, err := harness.Evaluate(g, cfg)
			if err != nil {
				return err
			}
			for _, m := range methods {
				series[m] = append(series[m], harness.Fig3Point{Fraction: frac, AvgL1: ev.AvgL1(m)})
			}
		}
		fmt.Print(harness.RenderFig3(name, series, methods))
		fmt.Println()
	}
	return nil
}

func table2(f flags) error {
	for _, name := range []string{"slashdot", "gowalla", "livemocha"} {
		g, err := buildDataset(name, f.scale, f.seed)
		if err != nil {
			return err
		}
		ev, err := harness.Evaluate(g, baseConfig(f))
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderPerProperty(name, ev))
		fmt.Println()
	}
	return nil
}

func evaluateSix(f flags) (map[string]*harness.Evaluation, error) {
	// Serial at the dataset level: each Evaluate fans its (run, method)
	// cells across the -workers pool already, and six concurrent
	// evaluations would multiply peak memory by holding every stand-in
	// graph's cells live at once.
	out := make(map[string]*harness.Evaluation)
	for _, d := range gen.TableDatasets() {
		g, err := buildDataset(d.Name, f.scale, f.seed)
		if err != nil {
			return nil, err
		}
		ev, err := harness.Evaluate(g, baseConfig(f))
		if err != nil {
			return nil, err
		}
		out[d.Name] = ev
	}
	return out, nil
}

func table3(f flags) error {
	evals, err := evaluateSix(f)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderAvgSD(evals))
	return nil
}

func table4(f flags) error {
	evals, err := evaluateSix(f)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderTimes(evals))
	return nil
}

func table5(f flags) error {
	g, err := buildDataset("youtube", f.scale, f.seed)
	if err != nil {
		return err
	}
	cfg := baseConfig(f)
	cfg.Fraction = 0.01
	cfg.Runs = max(1, f.runs/2) // paper uses 5 runs here vs 10 elsewhere
	ev, err := harness.Evaluate(g, cfg)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderPerProperty("youtube (1% queried)", ev))
	fmt.Print(harness.RenderAvgSD(map[string]*harness.Evaluation{"youtube": ev}))
	fmt.Print(harness.RenderTimes(map[string]*harness.Evaluation{"youtube": ev}))
	return nil
}

// fig4 renders the original anybeat stand-in and each method's generated
// graph at 10% queried as SVG files.
func fig4(f flags) error {
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return err
	}
	g, err := buildDataset("anybeat", f.scale, f.seed)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewPCG(f.seed, 0xf164))
	save := func(name string, gg *graph.Graph) error {
		path := filepath.Join(f.outDir, "fig4-"+name+".svg")
		lr := rand.New(rand.NewPCG(f.seed, 7))
		if err := layout.SaveSVG(path, gg, layout.Options{Rand: lr}, layout.SVGOptions{Title: name}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (n=%d m=%d)\n", path, gg.N(), gg.M())
		return nil
	}
	if err := save("original", g); err != nil {
		return err
	}
	cfg := baseConfig(f)
	seedNode := r.IntN(g.N())
	walk, err := sampling.RandomWalk(sampling.NewGraphAccess(g), seedNode, cfg.Fraction, r)
	if err != nil {
		return err
	}
	methods := map[string]func() (*graph.Graph, error){
		"bfs": func() (*graph.Graph, error) {
			c, err := sampling.BFS(sampling.NewGraphAccess(g), seedNode, cfg.Fraction)
			if err != nil {
				return nil, err
			}
			return sampling.BuildSubgraph(c).Graph, nil
		},
		"snowball": func() (*graph.Graph, error) {
			c, err := sampling.Snowball(sampling.NewGraphAccess(g), seedNode, 50, cfg.Fraction, r)
			if err != nil {
				return nil, err
			}
			return sampling.BuildSubgraph(c).Graph, nil
		},
		"ff": func() (*graph.Graph, error) {
			c, err := sampling.ForestFire(sampling.NewGraphAccess(g), seedNode, 0.7, cfg.Fraction, r)
			if err != nil {
				return nil, err
			}
			return sampling.BuildSubgraph(c).Graph, nil
		},
		"rw": func() (*graph.Graph, error) {
			return sampling.BuildSubgraph(walk).Graph, nil
		},
	}
	for name, fn := range methods {
		gg, err := fn()
		if err != nil {
			return err
		}
		if err := save(name, gg); err != nil {
			return err
		}
	}
	return restoreAndSave(f, walk, save)
}

func restoreAndSave(f flags, walk *sampling.Crawl, save func(string, *graph.Graph) error) error {
	r := rand.New(rand.NewPCG(f.seed, 0xabcd))
	gj, err := core.RestoreGjoka(walk, core.Options{RC: f.rc, Rand: r})
	if err != nil {
		return err
	}
	if err := save("gjoka", gj.Graph); err != nil {
		return err
	}
	pr, err := core.Restore(walk, core.Options{RC: f.rc, Rand: r})
	if err != nil {
		return err
	}
	if err := save("proposed", pr.Graph); err != nil {
		return err
	}
	// Extra rendering with node provenance: queried black, visible blue,
	// added red — shows how the restoration grows around the sample.
	colors := make([]string, pr.Graph.N())
	for i := range colors {
		switch {
		case i < pr.Subgraph.NumQueried:
			colors[i] = "black"
		case i < pr.Subgraph.Graph.N():
			colors[i] = "#2166ac" // visible
		default:
			colors[i] = "#d6604d" // added
		}
	}
	lr := rand.New(rand.NewPCG(f.seed, 8))
	pos := layout.FruchtermanReingold(pr.Graph, layout.Options{Rand: lr})
	path := filepath.Join(f.outDir, "fig4-proposed-provenance.svg")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := layout.WriteSVG(out, pr.Graph, pos, layout.SVGOptions{
		Title:      "proposed (black=queried, blue=visible, red=added)",
		NodeColors: colors,
		NodeRadius: 2,
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
