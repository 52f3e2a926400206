package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the regression bound (end-to-end only): the share of the
// parent's median by which the metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on every workload. The
// measured host has noisy episodes of a minute or two in which every timing
// reads 15-35 % worse (README.md, "Measured host and A/A"), so the timing
// bounds sit at the driver's cap; the allocation counts repeat to a tenth
// of a percent and keep the issue's 0.02.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.02},
	{"alloc_kib_per_op", "KiB", "lower", 0.02},
	{"rss_peak_mib", "MiB", "lower", 0.25},
}

// perLayer is the traced run's table; a metric whose layer a workload
// does not reach reads 0 there.
var perLayer = []metricDef{
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "synth.build_s", Unit: "s", Better: "lower"},
	{Name: "cfd3d.build_s", Unit: "s", Better: "lower"},
	{Name: "sampling.phase1_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sampling.phase2_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sampling.points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sampling.maxent_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.uips_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.lhs_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.stratified_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.random_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.kmeans_ms", Unit: "ms", Better: "lower"},
	{Name: "train.build_examples_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "train.fit_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "train.eval_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "train.step_us", Unit: "us", Better: "lower"},
	{Name: "train.allocs_per_step", Unit: "1", Better: "lower"},
	{Name: "train.val_loss", Unit: "1", Better: "lower"},
	{Name: "nn.forward_us", Unit: "us", Better: "lower"},
	{Name: "nn.backward_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.parallel_share", Unit: "1", Better: "higher"},
	{Name: "energy.model_j_per_op", Unit: "J", Better: "lower"},
	{Name: "energy.flops_per_op", Unit: "FLOP", Better: "lower"},
	{Name: "energy.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sickle.save_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sickle.load_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sickle.shard_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "stream.snapshots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.stall_share", Unit: "1", Better: "lower"},
	{Name: "stream.stalls_per_op", Unit: "1", Better: "lower"},
	{Name: "stream.peak_buffered_mib", Unit: "MiB", Better: "lower"},
	{Name: "stream.merge_rounds_per_op", Unit: "1", Better: "lower"},
	{Name: "stream.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.phase2_ms_per_snapshot", Unit: "ms", Better: "lower"},
	{Name: "stats.sketch_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.overhead_share", Unit: "1", Better: "lower"},
	{Name: "minimpi.sim_comm_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.infer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_infer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.router_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.route_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.server_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.execute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "1", Better: "higher"},
	{Name: "serve.rejected_share", Unit: "1", Better: "lower"},
	{Name: "shard.failovers", Unit: "count", Better: "lower"},
	{Name: "shard.routed_skew", Unit: "1", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "api.infer_req_bytes", Unit: "B", Better: "lower"},
	{Name: "api.infer_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "client.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_job", Unit: "1", Better: "lower"},
	{Name: "serve.executions_per_job", Unit: "1", Better: "lower"},
	{Name: "shard.owner_replications_per_job", Unit: "1", Better: "lower"},
	{Name: "shard.owner_dedup_hit_share", Unit: "1", Better: "higher"},
	{Name: "durable.dedup_hit_share", Unit: "1", Better: "higher"},
	{Name: "serve.cache_hit_share", Unit: "1", Better: "higher"},
	{Name: "durable.wal_append_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "durable.wal_appends_per_job", Unit: "1", Better: "lower"},
	{Name: "durable.wal_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "durable.log_append_us", Unit: "us", Better: "lower"},
	{Name: "serve.job_exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.job_queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.span_coverage_share", Unit: "1", Better: "higher"},
	{Name: "bench.trace_overhead_share", Unit: "1", Better: "lower"},
}

// layerTable computes every per-layer metric from a traced run's spans
// and counts alone. Span and count names are the ones the workloads
// record; a name nothing recorded contributes 0.
func layerTable(tf *traceFile) map[string]float64 {
	t := newSpanTable(tf.Spans)
	c := tf.Counts
	ops := c["ops"]
	perOp := func(name string) float64 { return ratio(t.total(name), ops) }
	perSpan := func(name string) float64 { return ratio(t.total(name), t.n(name)) }
	direct := t.p50("probe.client.infer_direct")
	samplingS := (t.total("sampling.phase1") + t.total("sampling.phase2")) / 1e3
	return map[string]float64{
		// Demoted from the end-to-end list: in a noisy episode the tail
		// moves by more than any bound the driver allows.
		"op_p90_ms": c["window.op_p90_ms"],

		"synth.build_s": t.total("synth.build") / 1e3,
		"cfd3d.build_s": t.total("cfd3d.build") / 1e3,

		// One phase1/phase2 span pair is one op's worth of sampling: inside
		// the op on paper-loop, a replay of the op's inputs on the others.
		"sampling.phase1_ms_per_op": perSpan("sampling.phase1"),
		"sampling.phase2_ms_per_op": perSpan("sampling.phase2"),
		"sampling.points_per_s":     ratio(c["sampling.points"], samplingS),
		"sampling.maxent_ms":        t.p50("probe.sampling.maxent"),
		"sampling.uips_ms":          t.p50("probe.sampling.uips"),
		"sampling.lhs_ms":           t.p50("probe.sampling.lhs"),
		"sampling.stratified_ms":    t.p50("probe.sampling.stratified"),
		"sampling.random_ms":        t.p50("probe.sampling.random"),
		"cluster.kmeans_ms":         t.p50("probe.cluster.kmeans"),

		"train.build_examples_ms_per_op": perOp("train.build_examples"),
		"train.fit_ms_per_op":            perOp("train.fit"),
		"train.eval_ms_per_op":           perOp("train.eval"),
		"train.step_us":                  ratio(t.total("train.fit")*1e3, c["train.steps"]),
		"train.allocs_per_step":          ratio(c["train.mallocs"], c["train.steps"]),
		"train.val_loss":                 c["train.val_loss"],
		"nn.forward_us":                  t.p50("probe.nn.forward") * 1e3,
		"nn.backward_us":                 t.p50("probe.nn.backward") * 1e3,
		"tensor.matmul_gflops":           ratio(c["probe.matmul_flops"], t.p50("probe.tensor.matmul")*1e6),
		"tensor.parallel_share":          ratio(c["window.cpu_ms_per_op"], c["window.op_p50_ms"]),

		"energy.model_j_per_op": ratio(c["energy.joules"], ops),
		"energy.flops_per_op":   ratio(c["energy.flops"], ops),
		"energy.bytes_per_op":   ratio(c["energy.bytes"], ops),

		"sickle.save_ms_per_op":     perOp("sickle.save"),
		"sickle.load_ms_per_op":     perOp("sickle.load"),
		"sickle.shard_bytes_per_op": ratio(c["sickle.shard_bytes"], ops),

		"stream.snapshots_per_s":        ratio(c["stream.snapshots"], c["stream.elapsed_s"]),
		"stream.points_per_s":           ratio(c["stream.points"], c["stream.elapsed_s"]),
		"stream.stall_share":            ratio(c["stream.stall_s"], c["stream.elapsed_s"]),
		"stream.stalls_per_op":          ratio(c["stream.stalls"], ops),
		"stream.peak_buffered_mib":      c["stream.peak_buffered_bytes"] / (1 << 20),
		"stream.merge_rounds_per_op":    ratio(c["stream.merge_rounds"], ops),
		"stream.phase1_ms":              perSpan("stream.phase1"),
		"stream.phase2_ms_per_snapshot": perSpan("stream.phase2"),
		"stats.sketch_merge_ms":         perSpan("stats.sketch_merge"),
		"stream.overhead_share":         overheadShare(t),
		"minimpi.sim_comm_ms_per_op":    ratio(c["minimpi.sim_comm_s"]*1e3, ops),

		"client.infer_ms_p50":       t.p50("client.infer"),
		"serve.direct_infer_ms_p50": direct,
		"shard.hop_ms_p50":          t.p50("probe.client.infer_routed") - direct,
		"shard.router_self_ms_p50":  t.selfP50("shard.router"),
		"shard.route_ms_p50":        t.p50("shard.route"),
		"serve.server_ms_p50":       t.p50("serve.server"),
		"serve.queue_wait_ms_p50":   t.p50("serve.queue"),
		"serve.execute_ms_p50":      t.p50("serve.execute"),
		"serve.batch_mean":          ratio(c["serve.batch_sum"], c["serve.batch_count"]),
		"serve.rejected_share":      ratio(c["serve.rejected"], c["serve.infer_requests"]),
		"shard.failovers":           c["shard.failovers"],
		"shard.routed_skew":         c["shard.routed_skew"],
		"obs.spans_dropped":         c["obs.spans_dropped"],
		"api.infer_req_bytes":       ratio(c["api.infer_req_bytes"], c["api.infer_bodies"]),
		"api.infer_resp_bytes":      ratio(c["api.infer_resp_bytes"], c["api.infer_bodies"]),

		"client.submit_ms_p50":             t.p50("client.submit"),
		"client.wait_ms_p50":               t.p50("client.wait"),
		"client.result_ms_p50":             t.p50("client.result"),
		"client.polls_per_job":             ratio(c["client.polls"], ops),
		"serve.executions_per_job":         ratio(c["serve.executions"], c["jobs.executing_ops"]),
		"shard.owner_replications_per_job": ratio(c["shard.owner_replications"], ops),
		"shard.owner_dedup_hit_share":      ratio(c["shard.owner_dedup_hits"], ops),
		"durable.dedup_hit_share":          ratio(c["durable.dedup_hits"], c["durable.dedup_hits"]+c["durable.dedup_misses"]),
		"serve.cache_hit_share":            ratio(c["serve.cache_hits"], c["serve.cache_hits"]+c["serve.cache_misses"]),
		"durable.wal_append_ms_mean":       ratio(c["durable.wal_append_s"]*1e3, c["durable.wal_appends"]),
		"durable.wal_appends_per_job":      ratio(c["durable.wal_appends"], ops),
		"durable.wal_bytes_per_job":        ratio(c["durable.wal_bytes"], ops),
		"durable.log_append_us":            t.p50("probe.durable.log_append") * 1e3,
		"serve.job_exec_ms_p50":            t.p50("serve.job_exec"),
		"serve.job_queue_ms_p50":           t.p50("serve.job_queue"),

		"bench.span_coverage_share":  t.coverage(),
		"bench.trace_overhead_share": 1 - ratio(c["window.ops_per_s"], c["untraced.ops_per_s"]),
	}
}

// overheadShare is 1 − (the offline two-phase pipeline over the same
// snapshots ÷ stream.Run): what the streaming machinery adds on top of the
// sampling it drives. It is negative when the ranks' parallelism wins more
// than the machinery costs.
func overheadShare(t *spanTable) float64 {
	run := t.p50("stream.run")
	if run == 0 {
		return 0
	}
	offline := ratio(t.total("sampling.phase1")+t.total("sampling.phase2"), t.n("sampling.phase1"))
	return 1 - offline/run
}
