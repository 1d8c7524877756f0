package sgr_test

import (
	"path/filepath"
	"testing"

	"sgr"
)

func TestNewGraphFacade(t *testing.T) {
	g := sgr.NewGraph(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("NewGraph: n=%d m=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("facade graph should behave like internal graph")
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := sgr.LoadGraph(filepath.Join(t.TempDir(), "missing.edges")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestEstimateRejectsNonWalk(t *testing.T) {
	c, err := sgr.NewCrawl([]int{0}, [][]int{{1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sgr.Estimate(c); err == nil {
		t.Fatal("want error for crawl without walk sequence")
	}
}

func TestPropertyNamesStable(t *testing.T) {
	want := []string{"n", "kbar", "P(k)", "knn(k)", "cbar", "c(k)",
		"P(s)", "lbar", "P(l)", "lmax", "b(k)", "lambda1"}
	if len(sgr.PropertyNames) != len(want) {
		t.Fatalf("PropertyNames: %v", sgr.PropertyNames)
	}
	for i, w := range want {
		if sgr.PropertyNames[i] != w {
			t.Fatalf("PropertyNames[%d] = %q want %q", i, sgr.PropertyNames[i], w)
		}
	}
}
