package lint

import "testing"

// TestScopeRules pins the analyzer/package boundary: the determinism
// contracts hold on the pipeline path, while daemon, metrics and CLI code
// may read clocks and iterate maps freely.
func TestScopeRules(t *testing.T) {
	cases := []struct {
		analyzer string
		pkg      string
		base     string
		want     bool
	}{
		// The pipeline path is covered, tests included.
		{"maprange", "sgr/internal/dkseries", "rewire.go", true},
		{"maprange", "sgr/internal/dkseries", "rewire_serialref_test.go", true},
		{"maprange", "sgr/internal/core", "buildref_test.go", true},
		{"maprange", "sgr/internal/estimate", "labelref_test.go", true},
		{"maprange", "sgr/internal/props", "csrdiff_test.go", true},
		{"maprange", "sgr/internal/sampling", "walks.go", true},
		{"floatorder", "sgr/internal/parallel", "parallel.go", true},
		{"floatorder", "sgr/internal/harness", "harness.go", true},
		{"seededrand", "sgr/internal/oracle", "server.go", true},
		{"seededrand", "sgr/internal/gen", "gen.go", true},
		{"wallclock", "sgr/internal/core", "restore.go", true},
		{"wallclock", "sgr/internal/estimate", "estimate.go", true},

		// The restored daemon is covered only on its content-address path:
		// map order or clock reads in key.go would re-key every cached
		// result, while the job daemon around it times and logs freely.
		{"maprange", "sgr/internal/restored", "key.go", true},
		{"maprange", "sgr/internal/restored", "key_test.go", true},
		{"maprange", "sgr/internal/restored", "service.go", false},
		{"wallclock", "sgr/internal/restored", "key.go", true},
		{"wallclock", "sgr/internal/restored", "service.go", false},
		{"seededrand", "sgr/internal/restored", "service.go", true},

		// The observability layer: byte-stable exposition keeps it inside
		// maprange/floatorder/seededrand scope, but reading monotonic
		// clocks is its job, so wallclock stays out — span capture is
		// legal in obs while the key path below stays locked.
		{"maprange", "sgr/internal/obs", "obs.go", true},
		{"floatorder", "sgr/internal/obs", "histogram.go", true},
		{"seededrand", "sgr/internal/obs", "trace.go", true},
		{"wallclock", "sgr/internal/obs", "trace.go", false},
		{"wallclock", "sgr/internal/obs", "histogram.go", false},

		// Measurement code is out of wallclock scope: tests poll
		// deadlines, the harness times restorers for its reports.
		{"wallclock", "sgr/internal/sampling", "sampling_test.go", false},
		{"wallclock", "sgr/internal/harness", "harness.go", false},

		// Daemon plumbing, metrics and CLIs are off the byte path.
		{"maprange", "sgr/internal/daemon", "daemon.go", false},
		{"maprange", "sgr/internal/oracle", "server.go", false},
		{"maprange", "sgr/internal/metrics", "l1.go", false},
		{"wallclock", "sgr/internal/daemon", "daemon.go", false},
		{"floatorder", "sgr/internal/layout", "layout.go", false},
		{"seededrand", "sgr/internal/daemon", "daemon.go", false},

		// Directives are validated everywhere.
		{"direct", "sgr/internal/daemon", "daemon.go", true},
		{"direct", "sgr", "sgr.go", true},
	}
	for _, c := range cases {
		if got := inScope(c.analyzer, c.pkg, c.base); got != c.want {
			t.Errorf("inScope(%q, %q, %q) = %v, want %v", c.analyzer, c.pkg, c.base, got, c.want)
		}
	}
}
