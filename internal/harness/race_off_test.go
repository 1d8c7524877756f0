//go:build !race

package harness

// raceEnabled reports a -race build, whose instrumentation multiplies the
// cost of every timed replay.
const raceEnabled = false
