# Local targets mirror .github/workflows/ci.yml one for one, so `make ci`
# reproduces exactly what the hosted pipeline runs.

GO      ?= go
FUZZTIME ?= 10s
# Iterations per benchmark when recording the committed JSON baselines.
BENCHTIME ?= 5x
# The oracle micro-benchmarks run in microseconds, not hundreds of
# milliseconds, so their baselines need far more iterations to mean
# anything (queries/s especially).
ORACLE_BENCHTIME ?= 2000x

.PHONY: build test race examples bench bench-json bench-gate bench-oracle-json bench-props-json bench-restored-json bench-load-json oracle-e2e restored-e2e loadgen-e2e chaos trace-demo lint fuzz sgrbench-test ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Build and run every program under examples/, each in its own empty
# working directory (visualize writes its SVGs there), failing on the
# first example that exits non-zero.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename $$dir); echo "== examples/$$name"; \
		$(GO) build -o "$$tmp/bin/$$name" ./$$dir || exit 1; \
		mkdir -p "$$tmp/run/$$name"; \
		(cd "$$tmp/run/$$name" && "$$tmp/bin/$$name") || { echo "examples/$$name failed"; exit 1; }; \
	done

# Compile-and-smoke every benchmark with a single iteration.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# record-bench is the one parameterized baseline recipe behind every
# bench-*-json target: $(call record-bench,<bench command(s)>,<out.json>).
# The bench output goes through a temp file, not a pipe: a benchmark
# failure or panic must fail the target instead of letting benchjson
# record the surviving lines as a green partial baseline. CI uploads the
# produced files as artifacts so the perf trajectory is tracked per commit.
define record-bench
	@tmp=$$(mktemp); \
	{ $(1); } > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson < $$tmp > $(2); \
	rm -f $$tmp; \
	cat $(2)
endef

# Rewiring-engine perf baseline: BenchmarkRewire (the frozen serial adjset
# and map references, and the sharded engine at 1 and 8 workers) and
# BenchmarkRestoreEndToEnd, with allocation stats.
bench-json:
	$(call record-bench,$(GO) test -run='^$$' -bench='^(BenchmarkRewire|BenchmarkRestoreEndToEnd)$$' -benchmem -benchtime=$(BENCHTIME) ./internal/dkseries ./internal/core,BENCH_rewire.json)

# bench-gate re-records each gated baseline — the rewiring engine
# (BENCH_rewire.json) and the property/read path (BENCH_props.json) — five
# times and hands the runs to scripts/bench_gate.sh, which fails when the
# median ratio of a production benchmark to its frozen reference (timed in
# the same `go test`) grew more than 20% over the committed file's ratio.
# Absolute ns/op is reported as ungated trajectory: it moves with the
# host, the ratios do not. Each committed file is snapshotted before its
# recording target overwrites it; the last fresh recording is left in
# place for inspection (and for committing when an improvement should
# become the new baseline). Every baseline is gated even after one fails,
# so a single run reports all regressions.
GATED_BENCH := bench-json:BENCH_rewire.json bench-props-json:BENCH_props.json
bench-gate:
	@st=0; for pair in $(GATED_BENCH); do \
		target=$${pair%%:*}; file=$${pair#*:}; \
		tmp=$$(mktemp -d); cp $$file $$tmp/$$file; \
		for i in 1 2 3 4 5; do \
			echo "bench-gate: $$file run $$i/5"; \
			if $(MAKE) --no-print-directory $$target > $$tmp/log 2>&1; then cp $$file $$tmp/run$$i.json; \
			else cat $$tmp/log; st=1; break; fi; \
		done; \
		jq -s '{benchmarks: map(.benchmarks[])}' $$tmp/run*.json > $$tmp/fresh.json && \
			bash scripts/bench_gate.sh $$tmp/$$file $$tmp/fresh.json || st=1; \
		rm -rf $$tmp; \
	done; exit $$st

# Oracle (graphd HTTP server + resilient client) throughput baseline — full
# remote crawls and the 8-concurrent-crawler load shape. The raw query
# rate (BenchmarkOracleNeighbors) is recorded once, in the gated
# BENCH_props.json.
bench-oracle-json:
	$(call record-bench,$(GO) test -run='^$$' -bench='^Benchmark(OracleCrawl|OracleConcurrentCrawlers)' -benchmem -benchtime=$(ORACLE_BENCHTIME) ./internal/oracle,BENCH_oracle.json)

# Read-path (CSR snapshot) perf baseline: full property computation in
# exact and pivot mode against the frozen pre-CSR pipeline, Brandes over
# all sources, and the oracle's serving rate before/after the CSR page
# path plus the batched-vs-single BFS crawl split.
bench-props-json:
	$(call record-bench,$(GO) test -run='^$$' -bench='^(BenchmarkComputeAll|BenchmarkBrandesAllSources)' -benchmem -benchtime=$(BENCHTIME) ./internal/props && $(GO) test -run='^$$' -bench='^(BenchmarkOracleNeighbors|BenchmarkServerNeighborsHandler|BenchmarkOracleBFSCrawl)' -benchmem -benchtime=$(ORACLE_BENCHTIME) ./internal/oracle,BENCH_props.json)

# Restoration-as-a-service baseline: service throughput when every job is
# new work (jobs/s = 1e9/ns-per-op), the cache-hit and dedup fast paths,
# and the submit-time canonicalization cost. The paths are microsecond-to-
# millisecond scale, so they get the oracle iteration count.
bench-restored-json:
	$(call record-bench,$(GO) test -run='^$$' -bench='^BenchmarkRestored' -benchmem -benchtime=$(ORACLE_BENCHTIME) ./internal/restored,BENCH_restored.json)

# Workload-trajectory baseline: boot both daemons and drive the standard
# seeded loadgen mix at them, recording the full correlated SLO report
# (client histograms, server scrape deltas, cross-checks, verdict) as
# BENCH_load.json — the serving-stack counterpart of the micro-benchmark
# baselines above. Unlike record-bench targets this is not benchjson
# output; the report is its own JSON format (see internal/loadgen).
bench-load-json:
	bash scripts/bench_load.sh BENCH_load.json

# Client/server acceptance gate: boot graphd on a random port with
# injected faults, crawl it over HTTP under -race, require byte-identical
# output vs the in-memory path, resume from the journal, restore offline.
oracle-e2e:
	bash scripts/oracle_e2e.sh

# Restoration-as-a-service acceptance gate: boot a race-enabled restored on
# a random port, submit -> poll -> download, require downloads
# byte-identical to the offline restore, assert the cache/singleflight
# counters, round-trip the binary codec through gengraph.
restored-e2e:
	bash scripts/restored_e2e.sh

# Workload-observability acceptance gate: boot race-enabled graphd +
# restored, crawl with -stats-json, run the seeded loadgen swarm twice
# (identical schedule hashes required), and check the SLO report:
# well-formed, client<->server correlation consistent, generous SLO
# passes, unattainable SLO exits 2.
loadgen-e2e:
	bash scripts/loadgen_e2e.sh

# Crash-safety acceptance gate: SIGKILL a race-enabled restored mid-job,
# restart it on the same cache dir, require the WAL-replayed job to finish
# byte-identical to the offline restore; then cancellation over the wire
# and a crawl through graphd with every fault mode enabled.
chaos:
	bash scripts/chaos_e2e.sh

# Pipeline flame chart in one command: generate, crawl, restore with
# -trace, and leave a Chrome trace_event file (default trace.json, override
# with TRACE_OUT=...) to load at chrome://tracing or ui.perfetto.dev.
trace-demo:
	bash scripts/trace_demo.sh

# Mirrors the CI lint job: vet (of the sgrbench module too — it imports
# sgr/internal/... through a replace, and nothing else compiles it),
# gofmt, the sgrlint determinism suite (test files included), and
# govulncheck when installed (CI always runs it; locally it is skipped
# rather than go-installed so the target works offline).
lint:
	$(GO) vet ./...
	cd sgrbench && $(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/sgrlint ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (CI runs it)"; fi

# The end-to-end benchmark's own self-tests (byte identity of its outputs,
# the L1 checks) at tiny sizes. sgrbench is a separate module, so the
# repository's `go test ./...` never runs them.
sgrbench-test:
	cd sgrbench && $(GO) test ./...

# Short fuzz smoke of the native fuzz targets.
fuzz:
	$(GO) test ./internal/core -run='^FuzzFenwick$$' -fuzz='^FuzzFenwick$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sampling -run='^FuzzReadCrawlJSON$$' -fuzz='^FuzzReadCrawlJSON$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/restored -run='^FuzzCacheKeyCanonicalization$$' -fuzz='^FuzzCacheKeyCanonicalization$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/restored -run='^FuzzJobJournal$$' -fuzz='^FuzzJobJournal$$' -fuzztime=$(FUZZTIME)

ci: lint build test sgrbench-test examples race fuzz bench oracle-e2e restored-e2e loadgen-e2e chaos
