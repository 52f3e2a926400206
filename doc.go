// Package repro is SICKLE-Go: a pure-Go reproduction of "Intelligent
// Sampling of Extreme-Scale Turbulence Datasets for Accurate and Efficient
// Spatiotemporal Model Training" (Brewer et al., SC 2025).
//
// The library lives under internal/: sampling (the paper's MaxEnt/UIPS/
// baseline samplers), synth+cfd2d+cfd3d (synthetic DNS dataset analogues),
// nn+train (the neural-network stack and Table 2 architectures), minimpi
// (goroutine message passing), energy (counter-based energy model), sickle
// (sickle.Loop, the T1→T2→T3 entry point — subsample, train, evaluate
// against the Eq. 3 energies — and the paper's figure drivers, which
// cmd/sickle-bench -exp runs as the one harness for its numbers), serve
// (the online subsystem: micro-batched surrogate inference and LRU-cached
// subsampling behind an HTTP API, served by cmd/sickle-serve and
// smoke-tested by .github/smoke.sh serve), shard (the scaling tier: a
// consistent-hash router over N serve backends with health-probe
// ejection/re-admission, bounded failover, scatter-gather listings and
// sticky job routing, served by cmd/sickle-shard and smoke-tested by
// .github/smoke.sh shard and elastic), tier (the chassis both online
// tiers embed: flight-recorder bundle, route table with typed 405/404
// fallbacks, request middleware, envelope helpers, /metrics, the
// -debug-addr sidecar and listen/serve/shutdown), and stream (the in-situ
// subsystem: solver-coupled streaming subsampling under a bounded snapshot
// window with collective sketch merges and sharded .skl output, driven by
// cmd/sickle-stream). See README.md.
//
// Observability is one shared substrate, internal/obs: a unified metrics
// registry rendering lint-clean Prometheus text exposition with
// le-bucketed latency histograms, a bounded trace ring behind
// /debug/traces endpoints on every tier (trace identity and the
// X-Sickle-Trace header live in pkg/api, so one client request through
// the router reads as one trace with routing, queue, and execute spans),
// runtime/build/pool gauges, and internal/obs/log, which builds the
// binaries' log/slog logger from -log-level/-log-json and rate-limits
// repeated warn/error floods per message (README "Observability").
//
// On top of that substrate sits the flight recorder (README "Operating
// sickle"): internal/obs/tsdb samples each tier's registry into a
// fixed-memory ring history behind GET /debug/history; internal/obs/slo
// evaluates declarative objectives (per-route p-latency, availability,
// queue depth) with multi-window burn rates, exports sickle_slo_* gauges,
// serves GET /debug/slo, and flips /healthz to "degraded" — which the
// shard router deprioritizes in failover order without ejecting; and
// internal/obs/events journals operational transitions (failover,
// ejection/re-admission, hot-swap, job panics, backpressure stalls, SLO
// breaches) into a bounded ring behind GET /debug/events, cross-linked to
// traces. The router scatter-gathers every replica's history and journal
// into one fleet view, and cmd/sickle-top renders it as a live terminal
// dashboard (internal/obs/top; -once emits one JSON snapshot for CI).
//
// The public surface lives under pkg/: api (the versioned wire contract —
// request/response types, the typed error envelope with machine-readable
// codes, job types, version negotiation) and client (the Go SDK: typed
// methods with per-call contexts, retry-with-backoff on overloaded, job
// submit/wait/cancel helpers). The service is context-first end to end:
// request and job contexts reach the batcher queues, replica acquisition,
// the cache, and the sampling/training loops, so DELETE /v2/jobs/{id}
// stops a subsample between cube batches and a training run between
// epochs.
//
// All of these share the tensor package's kernel engine: a persistent
// worker pool (tensor.Pool) whose ParallelFor splits by (n, work) alone, a
// register-tiled transpose-free matmul family, and a step-scoped tensor
// workspace (tensor.Workspace: every model owns one, and what a pass hands
// out is valid until that model's next Forward). Every pooled kernel is
// bit-identical to its serial reference, asserted by parity tests.
// Throughput, allocations and latency are measured end to end and per
// layer by the bench/ ledger (BENCHMARK.json, bench/README.md; README
// "Performance").
//
// The contracts above are machine-enforced by a test: internal/analysis's
// TestVet runs four stdlib-only analyzers (closecheck, ctxfirst, apierr,
// metricname) over every package inside `go test ./...` and fails on any
// finding. Deliberate exceptions annotate with //sicklevet:ignore
// <analyzer> <reason>, and a directive that no longer excuses anything is
// itself a finding; TestNoStrayOutput keeps ad-hoc printing out of the
// long-running packages (README "Development: static analysis"). The
// exported surface is held to what the program calls by
// internal/analysis's TestExportedSurface: a function or method exported
// from internal/ that only _test.go files reach is deleted, unexported
// beside its test, or listed with its reason in that test's allowlist
// (README "Development: exported surface").
package repro
