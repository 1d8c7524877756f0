package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"sgr/internal/lint"
	"sgr/internal/lint/linttest"
)

// Each analyzer has failing-then-fixed fixtures: the flagged shapes carry
// `// want` expectations, the fixed shapes (sorted keys, seeded PCG, slot
// pattern, justified directives) expect silence.

func TestMapRangeFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "maprange"), "maprange")
}

func TestSeededRandFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "seededrand"), "seededrand")
}

func TestWallClockFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "wallclock"), "wallclock")
}

func TestFloatOrderFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "floatorder"), "floatorder")
}

func TestDirectFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "direct"), "wallclock")
}

// TestKeyCanonFixtures pins the observability boundary from the locked
// side: code shaped like restored/key.go's content-address canonicalization
// is flagged the moment a clock read sneaks in, even though the obs package
// (wallclock-exempt by scope) reads clocks two doors down. Span capture is
// legal; timestamped cache keys are not.
func TestKeyCanonFixtures(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "keycanon"), "wallclock")
}

// TestFrozenReferenceShapesClean runs the whole suite over map-iteration
// shapes distilled from the frozen reference engines (csrdiff_test.go and
// the retired map-based rewiring engine): all of them must pass without
// a single directive — the differential guards may not need escape
// hatches just to exist.
func TestFrozenReferenceShapesClean(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "frozenref"),
		"maprange", "seededrand", "wallclock", "floatorder")
}

// TestRepoTreeClean is the acceptance gate: the scoped suite over the
// entire repository — test files included — reports nothing. Every
// determinism hazard in the tree is either fixed or carries a justified
// //sgr:nondet-ok, and no directive is stale. (This is the same run
// `make lint` and the CI lint job perform via cmd/sgrlint.)
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-tree lint in -short mode")
	}
	units, err := lint.Load(filepath.Join("..", ".."), true, []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	findings, err := lint.Run(units, lint.Analyzers(), true)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	// The frozen map-based references must be analyzed (not skipped) and
	// clean: their files appear among the loaded units.
	for pkg, file := range map[string]string{
		"sgr/internal/props":    "csrdiff_test.go",
		"sgr/internal/estimate": "labelref_test.go",
		"sgr/internal/core":     "buildref_test.go",
	} {
		found := false
		for _, u := range units {
			if u.PkgPath == pkg {
				for _, name := range u.Filenames {
					if strings.HasSuffix(name, file) {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("frozen reference %s of %s was not loaded for analysis", file, pkg)
		}
	}
}
