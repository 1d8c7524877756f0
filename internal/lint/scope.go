package lint

import "strings"

// Scope rules: which analyzer runs on which file. The determinism
// contracts hold on the pipeline path — everything a restoration output
// byte or a content-addressed job id is computed from — while daemon,
// metrics and CLI code is free to read clocks and emit maps in whatever
// order it likes. These tables are the machine-readable form of that
// boundary; TestScopeRules pins them.
//
// The suite runner applies scope only when asked (cmd/sgrlint does, the
// linttest fixtures don't), so analyzers themselves stay scope-free.

// criticalPkgs are the packages whose code (including tests — the
// differential guards must themselves be deterministic) is on the
// byte-determinism path: the pipeline phases, their storage engines, the
// crawlers and estimators, the evaluation harness and the worker pool.
var criticalPkgs = map[string]bool{
	"sgr/internal/core":     true,
	"sgr/internal/dkseries": true,
	"sgr/internal/estimate": true,
	"sgr/internal/gen":      true,
	"sgr/internal/graph":    true,
	"sgr/internal/harness":  true,
	"sgr/internal/parallel": true,
	"sgr/internal/props":    true,
	"sgr/internal/sampling": true,
}

const (
	oraclePkg   = "sgr/internal/oracle"
	restoredPkg = "sgr/internal/restored"
	// obsPkg is the observability layer. Its exposition output is part of
	// the byte-stable contract (32 identical scrapes), so map order and
	// unseeded randomness are in scope — but it is the ONE package whose
	// whole point is reading monotonic clocks, so the wallclock analyzer
	// stays out. Span capture is legal there; anything feeding the
	// content-address path (restored/key.go) stays locked.
	obsPkg = "sgr/internal/obs"
)

// restoredKeyFiles is the content-address computation inside the restored
// daemon: the one corner of that package where map order, clocks and
// unseeded randomness would silently re-key every cached result.
var restoredKeyFiles = map[string]bool{
	"key.go":      true,
	"key_test.go": true,
}

// inScope reports whether analyzer applies to file base of package
// pkgPath. base is the file's basename; test-variant packages report the
// underlying package's import path.
func inScope(analyzer, pkgPath, base string) bool {
	isTest := strings.HasSuffix(base, "_test.go")
	switch analyzer {
	case "direct":
		// Directives are validated wherever they appear.
		return true
	case "maprange":
		// obs is in scope: its Prometheus exposition promises byte-stable
		// order, which a map range would silently break.
		return criticalPkgs[pkgPath] || pkgPath == obsPkg ||
			(pkgPath == restoredPkg && restoredKeyFiles[base])
	case "seededrand":
		// The oracle's injected faults and the restored daemon are part of
		// the byte-identical crawl/restore contracts, so their randomness
		// must be explicitly seeded too.
		return criticalPkgs[pkgPath] || pkgPath == oraclePkg ||
			pkgPath == restoredPkg || pkgPath == obsPkg
	case "floatorder":
		return criticalPkgs[pkgPath] || pkgPath == oraclePkg ||
			pkgPath == restoredPkg || pkgPath == obsPkg
	case "wallclock":
		// Tests may poll deadlines, and the harness times restorer calls
		// for its reports — wall time there is measurement, not output.
		if isTest {
			return false
		}
		if pkgPath == "sgr/internal/harness" {
			return false
		}
		// obs exists to read monotonic clocks (spans, timers, histograms
		// of wall latency); it is measurement by construction and out of
		// scope. The boundary holds because the locked packages (core,
		// dkseries, restored/key.go) may only *call* obs's nil-safe hooks,
		// never read clocks themselves — a time.Now() smuggled into key
		// canonicalization is still flagged (see the keycanon fixture).
		if pkgPath == obsPkg {
			return false
		}
		return criticalPkgs[pkgPath] || (pkgPath == restoredPkg && base == "key.go")
	default:
		return false
	}
}
