// Package obs is the shared observability layer for the serve/shard/stream
// stack: one metrics registry, one tracing substrate, and the debug/pprof
// plumbing, so every tier exports the same way.
//
//   - registry.go — Registry: counters, gauges, and proper le-bucketed
//     histograms (with labeled vecs and live -Func probes) rendered as
//     Prometheus text exposition, # HELP/# TYPE lines included. All value
//     types are lock-free (atomic float bits) and nil-safe, so
//     instrumentation can be threaded through hot paths unconditionally.
//   - trace.go — Tracer: trace/span recording into a bounded in-memory
//     ring. Trace identity (IDs, the X-Sickle-Trace header, context
//     propagation) lives in pkg/api so clients outside internal/ can mint
//     and propagate traces; this package records and serves the spans.
//   - ring.go — Ring[T]: the one bounded overwrite-oldest buffer behind
//     the span ring, the event journal and the tsdb series.
//   - debug.go — HTTP surface: /debug/traces + /debug/traces/{id} JSON
//     handlers over a Tracer's ring, and NewDebugMux, the opt-in
//     -debug-addr mux bundling net/http/pprof with /metrics and the trace
//     endpoints.
//   - runtime.go — RegisterRuntime: process-level gauges (goroutines,
//     heap, GC pause, start time, sickle_build_info) plus tensor.Pool
//     worker-utilization gauges, registered onto any Registry.
//   - lint.go — LintExposition: a line-by-line exposition-format checker
//     used by tests and the CI smoke step to reject malformed series.
//
// internal/obs/log (package olog) is the structured leveled logger the
// binaries and the serve/shard request paths share.
package obs
