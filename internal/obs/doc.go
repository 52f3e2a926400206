// Package obs is the shared observability layer for the serve/shard/stream
// stack: one metrics registry, one tracing substrate, and their HTTP
// handlers, so every tier exports the same way.
//
//   - registry.go — Registry: counters, gauges, and proper le-bucketed
//     histograms (with labeled vecs and live -Func probes). One walk,
//     Snapshot, reads it: the tsdb sampler stores what it yields and Render
//     formats it as Prometheus text exposition, # HELP/# TYPE included. All
//     value types are lock-free (atomic float bits) and nil-safe, so
//     instrumentation can be threaded through hot paths unconditionally.
//   - trace.go — Tracer: trace/span recording into a bounded in-memory
//     ring. Trace identity (IDs, the X-Sickle-Trace header, context
//     propagation) lives in pkg/api so clients outside internal/ can mint
//     and propagate traces; this package records and serves the spans.
//   - ring.go — Ring[T]: the one bounded overwrite-oldest buffer behind
//     the span ring, the event journal and the tsdb series.
//   - debug.go — HTTP handlers: /metrics over a Registry, /debug/traces +
//     /debug/traces/{id} JSON over a Tracer's ring, and ParseSince, the
//     since rule /debug/history and /debug/events share. internal/tier
//     mounts them, with pprof on the -debug-addr sidecar.
//   - runtime.go — RegisterRuntime: process-level gauges (goroutines,
//     heap, GC pause, start time, sickle_build_info) plus tensor.Pool
//     worker-utilization gauges, registered onto any Registry.
//
// internal/obs/log (package olog) builds the binaries' *slog.Logger: slog's
// text or JSON handler behind a per-message warn/error rate limit.
package obs
