package sgr_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runTool runs one of the repository's commands via `go run` and returns
// its combined output.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the full command-line workflow: generate a
// dataset stand-in, crawl it, restore from the walk, and analyze the
// result — the contract a downstream user scripts against.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is slow (go run compiles each tool)")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.edges")
	subPath := filepath.Join(dir, "sub.edges")
	restoredPath := filepath.Join(dir, "restored.edges")

	out := runTool(t, "./cmd/gengraph", "-dataset", "anybeat", "-scale", "0.05", "-seed", "3", "-out", graphPath)
	if !strings.Contains(out, "generated graph") {
		t.Fatalf("gengraph output: %s", out)
	}
	if _, err := os.Stat(graphPath); err != nil {
		t.Fatal(err)
	}

	out = runTool(t, "./cmd/crawl", "-graph", graphPath, "-method", "rw",
		"-fraction", "0.1", "-seed", "3", "-out", subPath)
	if !strings.Contains(out, "subgraph") {
		t.Fatalf("crawl output: %s", out)
	}

	out = runTool(t, "./cmd/restore", "-graph", graphPath, "-fraction", "0.1",
		"-rc", "5", "-seed", "3", "-out", restoredPath, "-compare=false")
	if !strings.Contains(out, "restored:") {
		t.Fatalf("restore output: %s", out)
	}

	out = runTool(t, "./cmd/props", "-graph", restoredPath, "-against", graphPath)
	if !strings.Contains(out, "Normalized L1 distances") || !strings.Contains(out, "avg") {
		t.Fatalf("props output: %s", out)
	}

	// Offline workflow: persist the sampling list, then restore from it
	// without access to the original graph.
	crawlPath := filepath.Join(dir, "crawl.json")
	runTool(t, "./cmd/crawl", "-graph", graphPath, "-method", "rw",
		"-fraction", "0.1", "-seed", "3", "-out", subPath, "-save-crawl", crawlPath)
	out = runTool(t, "./cmd/restore", "-crawl", crawlPath, "-rc", "5", "-seed", "3",
		"-out", filepath.Join(dir, "offline.edges"))
	if !strings.Contains(out, "restored:") {
		t.Fatalf("offline restore output: %s", out)
	}
}

// TestCLIRestoreRejectsBadRC: an -rc that is not finite or lies outside
// [0, dkseries.MaxRC] fails the command before any work, where it used to
// overflow the attempt budget and report "accepted 0/0 swaps" as success.
func TestCLIRestoreRejectsBadRC(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles cmd/restore")
	}
	for _, rc := range []string{"1e30", "NaN", "+Inf", "-Inf", "-1"} {
		out, err := exec.Command("go", "run", "./cmd/restore", "-dataset", "anybeat",
			"-scale", "0.01", "-rc", rc, "-compare=false").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "rc") || strings.Contains(string(out), "restored:") {
			t.Errorf("-rc %s: err %v, output:\n%s", rc, err, out)
		}
	}
}

// TestCLIOraclePipeline drives the client/server workflow end to end: boot
// graphd on a random port, crawl it over HTTP with a journal, require the
// crawl byte-identical to the in-memory path at the same seed, and restore
// offline from the journal.
func TestCLIOraclePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle CLI pipeline is slow (compiles the tools)")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.edges")
	runTool(t, "./cmd/gengraph", "-dataset", "anybeat", "-scale", "0.05", "-seed", "3", "-out", graphPath)

	// graphd runs as a managed subprocess; -addr-file publishes the bound
	// random port once it is listening.
	graphd := filepath.Join(dir, "graphd")
	if out, err := exec.Command("go", "build", "-o", graphd, "./cmd/graphd").CombinedOutput(); err != nil {
		t.Fatalf("building graphd: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(graphd, "-graph", graphPath, "-addr", "127.0.0.1:0",
		"-addr-file", addrFile, "-latency", "1ms", "-error-rate", "0.05", "-fault-seed", "7")
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	var addr []byte
	for i := 0; i < 100; i++ {
		var err error
		if addr, err = os.ReadFile(addrFile); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(addr) == 0 {
		t.Fatal("graphd never published its address")
	}
	url := "http://" + strings.TrimSpace(string(addr))

	httpJSON := filepath.Join(dir, "http.json")
	memJSON := filepath.Join(dir, "mem.json")
	journal := filepath.Join(dir, "crawl.journal")
	out := runTool(t, "./cmd/crawl", "-url", url, "-fraction", "0.1", "-seed", "3",
		"-journal", journal, "-save-crawl", httpJSON, "-out", filepath.Join(dir, "http.edges"))
	if !strings.Contains(out, "fetched over HTTP") {
		t.Fatalf("remote crawl output: %s", out)
	}
	runTool(t, "./cmd/crawl", "-graph", graphPath, "-fraction", "0.1", "-seed", "3",
		"-save-crawl", memJSON, "-out", filepath.Join(dir, "mem.edges"))
	a, err := os.ReadFile(httpJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(memJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("remote crawl JSON differs from in-memory crawl JSON")
	}

	out = runTool(t, "./cmd/restore", "-journal", journal, "-rc", "5", "-seed", "3",
		"-compare=false", "-out", filepath.Join(dir, "restored.edges"))
	if !strings.Contains(out, "restored:") {
		t.Fatalf("journal restore output: %s", out)
	}
}

// TestCLIBinaryRoundTrip drives the SGRB codec through the command line:
// restore -out-binary writes it, gengraph -from-binary reads it back, and
// the converted edge list must be byte-identical to restore's own -out.
func TestCLIBinaryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI round trip is slow (go run compiles each tool)")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.edges")
	crawlPath := filepath.Join(dir, "crawl.json")
	runTool(t, "./cmd/gengraph", "-dataset", "anybeat", "-scale", "0.05", "-seed", "3", "-out", graphPath)
	runTool(t, "./cmd/crawl", "-graph", graphPath, "-method", "rw",
		"-fraction", "0.1", "-seed", "3", "-out", filepath.Join(dir, "sub.edges"),
		"-save-crawl", crawlPath)

	edgesPath := filepath.Join(dir, "restored.edges")
	binPath := filepath.Join(dir, "restored.sgrb")
	out := runTool(t, "./cmd/restore", "-crawl", crawlPath, "-rc", "5", "-seed", "3",
		"-out", edgesPath, "-out-binary", binPath)
	if !strings.Contains(out, "(binary)") {
		t.Fatalf("restore did not report the binary output: %s", out)
	}

	roundTrip := filepath.Join(dir, "roundtrip.edges")
	runTool(t, "./cmd/gengraph", "-from-binary", binPath, "-out", roundTrip)
	want, err := os.ReadFile(edgesPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(roundTrip)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("binary round trip changed the edge list")
	}
}

// TestCLIExperimentSmoke runs the experiment driver on its smallest
// configuration to guard the artifact-regeneration entry point.
func TestCLIExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is slow")
	}
	dir := t.TempDir()
	out := runTool(t, "./cmd/experiment", "-exp", "fig4", "-scale", "0.02",
		"-rc", "2", "-seed", "4", "-out", dir)
	if !strings.Contains(out, "fig4-proposed.svg") {
		t.Fatalf("experiment output: %s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 7 {
		t.Fatalf("expected >=7 SVGs, got %d", len(entries))
	}
}

// TestCLIExperimentRejectsUnknownExp: an -exp name outside the documented
// set exits with status 2 and lists the valid names instead of silently
// running nothing.
func TestCLIExperimentRejectsUnknownExp(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles cmd/experiment")
	}
	bin := filepath.Join(t.TempDir(), "experiment")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/experiment").CombinedOutput(); err != nil {
		t.Fatalf("building experiment: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-exp", "bogus").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-exp bogus: err %v, want exit status 2; output:\n%s", err, out)
	}
	for _, name := range []string{"bogus", "all", "fig3", "tables", "table5", "fig4", "walkers"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-exp bogus output does not mention %q:\n%s", name, out)
		}
	}
}
