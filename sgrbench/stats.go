package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the exact q-quantile of xs by linear interpolation
// between order statistics (xs is not modified). It reads raw samples,
// never histogram buckets.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// samplesBeyond is the number of the n samples that lie beyond the
// q-quantile.
func samplesBeyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// percentile returns the q-quantile of xs for a reported metric. Every run
// reports its tails at the same fixed percentiles, so a run with fewer than
// minBeyond samples beyond q fails instead of reporting a percentile its
// samples cannot support.
func percentile(r *run, name string, xs []float64, q float64) float64 {
	if samplesBeyond(len(xs), q) < minBeyond {
		r.failf("%s: p%g over %d samples has fewer than %d beyond it", name, q*100, len(xs), minBeyond)
		return 0
	}
	return quantile(xs, q)
}

// summary is a timing population as the detail report prints it.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	Max float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{N: len(xs), P50: median(xs), Max: quantile(xs, 1)}
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB; pid
// 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS restarts a process's peak RSS (VmHWM) from its current RSS,
// so the peak covers only what follows; pid 0 means this process, which
// first collects and returns freed memory to the OS.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	} else {
		debug.FreeOSMemory()
	}
	if err := os.WriteFile(path, []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPUSeconds reads another process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}
