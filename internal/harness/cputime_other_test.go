//go:build !unix

package harness

import "time"

var processStart = time.Now()

// processCPU falls back to the monotonic wall clock where getrusage is
// not available.
func processCPU() time.Duration { return time.Since(processStart) }
