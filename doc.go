// Package sgr (social graph restoration) is a Go implementation of
// "Social Graph Restoration via Random Walk Sampling" (Nakajima & Shudo,
// ICDE 2022, arXiv:2111.11966).
//
// Given only the sampling list of a short simple random walk over a hidden
// social graph — the node sequence plus the neighbor list of each queried
// node — the library generates a graph whose local and global structural
// properties approximate those of the hidden original: it estimates the
// number of nodes, average degree, degree distribution, joint degree
// distribution and degree-dependent clustering with re-weighted random-walk
// estimators, builds realizable targets consistent with the sampled
// subgraph, completes the subgraph by half-edge wiring, and rewires the
// added edges toward the estimated clustering spectrum.
//
// This package is a facade over the implementation packages; the full
// workflow is:
//
//	g := sgr.LoadGraph("social.edges")              // or gen.* synthetic graphs
//	crawl, _ := sgr.RandomWalk(g, seed, 0.10, rng)  // query 10% of nodes
//	res, _ := sgr.Restore(crawl, sgr.Options{Rand: rng})
//	fmt.Println(res.Graph.N(), res.Graph.M())
//
// The compared baselines (subgraph sampling under BFS / snowball / forest
// fire / random walk, and Gjoka et al.'s 2.5K method), the 12 structural
// properties of the paper's evaluation, the normalized L1 accuracy measure,
// and the full experiment harness that regenerates every table and figure
// are all exposed here as well.
//
// The evaluation pipeline is deterministically parallel: every
// (run, method) cell of a sweep is an independent job on the bounded
// worker pool of internal/parallel, seeded with its own PCG stream derived
// from the master seed, with results collected by job index. For a fixed
// seed the harness therefore produces identical results at any worker
// count (harness.Config.Workers, or -workers on cmd/experiment; default
// runtime.GOMAXPROCS), and the whole engine is -race-clean. cmd/restore's
// -workers instead bounds the all-sources path pass of the property
// computation (the per-node property loops run serially), whose results
// are bit-identical at any value too. See
// README.md for the exact stream derivation and the CI gates that enforce
// this.
//
// The access model is also served over the network: internal/oracle plus
// cmd/graphd expose a hidden graph through an HTTP/JSON API implementing
// exactly the paper's neighbor-query interface — paginated hub responses,
// per-client token-bucket rate limiting, injected latency and transient
// errors, and private profiles — while oracle.Client implements
// sampling.Access over the wire with bounded retries, pagination
// reassembly, an in-flight-deduplicating cache, and an on-disk crawl
// journal that resumes interrupted crawls without re-spending budget
// (restore -journal consumes it offline). A remote crawl is byte-identical
// to the in-memory path at the same seed; see README.md, "The networked
// graph oracle".
//
// Production code reads adjacency in three forms: a Graph's own neighbor
// lists, its graph.CSR snapshot (Graph.CSR().Multiplicity answers A[u][v]
// by binary search; there is no separate multiplicity index), and the
// rewiring engine's sorted rows, a mutable copy of the CSR distinct view.
// The walk estimators read the crawl's neighbor lists directly. A flat
// open-addressing multiset survives only as test support inside
// internal/dkseries, the adjacency of the frozen serial rewiring reference
// that the engine is checked against byte-for-byte; `make bench-json`
// records the engine's perf baseline in BENCH_rewire.json (see README.md,
// "Adjacency forms").
//
// Phase-4 rewiring — the pipeline's hot path — runs on the sharded
// parallel engine of dkseries.RewireSharded: the candidate half-edge
// space is partitioned by degree bucket into a fixed number of shards,
// each shard proposes swaps from its own PCG sub-stream
// (sampling.SubStream) and evaluates their exact clustering deltas
// read-only against sorted neighbor rows, and accepted swaps are merged
// serially in a fixed shard order. The parallelism model is
// propose-in-parallel, commit-in-order, and it carries a worker-count
// invariance guarantee: the restored graph is a deterministic function of
// (input, seed, shard count, round size) and is byte-identical at any
// worker setting — core.Options.RewireWorkers, -rewire-workers on
// cmd/restore and cmd/restored, and harness.Config.RewireWorkers buy wall
// clock only. That is what lets restored exclude the knob from its job
// content address (differently configured daemons share cache lines) and
// lets the bench gate (`make bench-gate`, scripts/bench_gate.sh) compare
// production-to-reference ratios across machines with different core
// counts. The
// rewiring trajectory differs from that of Algorithm 6's serial loop (kept
// as a frozen test reference) — the two share state and accept semantics,
// not proposal sequences — and is pinned by worker-invariance, output
// digest and differential white-box tests in internal/dkseries; see
// ARCHITECTURE.md for the full determinism-contract inventory.
//
// Restoration itself is also served as a service: internal/restored plus
// cmd/restored run the whole crawl → dK-series → rewiring pipeline behind
// an asynchronous HTTP/JSON job API (POST /v1/jobs with an inline crawl,
// an uploaded crawl journal, or a graphd URL to crawl server-side; poll
// GET /v1/jobs/{id}; download /graph and /props). Jobs are content-
// addressed — the job id is the SHA-256 of the canonicalized crawl bytes,
// pipeline options, and seed — so identical submissions, however spelled,
// singleflight onto one pipeline run and are answered from a result cache
// (in memory, optionally persisted on disk) at a fraction of the cost.
// Every job pins its seed through core.PipelineRand, making daemon results
// byte-identical to `restore -seed` run offline on the same crawl; results
// travel in the binary SGRB codec of graph.WriteBinary/ReadBinary
// (versioned, checksummed, round-trip exact including multi-edges,
// self-loops and adjacency order), which restore -out-binary writes and
// gengraph -from-binary reads. Both daemons expose /v1/healthz and a
// plain-text /v1/metrics through the shared internal/daemon plumbing; see
// README.md, "Restoration as a service".
//
// The read side runs on graph.CSR, an immutable int32 compressed-sparse-
// row snapshot cached on the graph and invalidated by every mutator: one
// endpoint view in original adjacency order (served zero-copy as oracle
// neighbor pages) and one sorted distinct-neighbor/multiplicity view whose
// rows make triangle counting one mark-and-probe pass and
// shared-partner counting a linear sorted-merge intersection. All twelve
// evaluated properties, the D-measure, and the oracle server share one
// snapshot per graph; harness.Evaluate builds it once before its cells fan
// out. The oracle additionally exposes a batched GET /v1/neighbors?ids=...
// endpoint that oracle.Client.Prefetch drives for BFS-frontier crawls —
// byte-identical crawls and budgets, a fraction of the round trips. Every
// rewritten props function is pinned bit-for-bit to its frozen pre-CSR
// reference (internal/props/csrdiff_test.go), and `make bench-props-json`
// records the read-path baseline in BENCH_props.json (see README.md, "The
// read path: CSR snapshots").
//
// The determinism contracts are also enforced statically: cmd/sgrlint
// (internal/lint) runs five analyzers over the typed ASTs of every
// determinism-critical package — maprange (no order-sensitive map
// iteration), seededrand (no implicitly seeded or wall-clock-seeded
// randomness), wallclock (no time.Now on the pipeline or content-address
// path), floatorder (no cross-goroutine float accumulation outside
// index-addressed slots), and direct, which validates the
// //sgr:nondet-ok <reason> escape hatch: reasonless or stale
// justifications are findings themselves. `make lint` and the CI lint
// job run the suite over the whole tree, test files included, so a
// nondeterminism hazard fails the build before it can flake a test.
package sgr
