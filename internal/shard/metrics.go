package shard

import (
	"repro/internal/obs"
	"repro/internal/tier"
)

// Metrics is the router's own instrumentation on the chassis registry:
// per-replica liveness and routing counters, failover/ejection/
// re-admission counters, and the per-route request series the tier
// middleware counts on. All pre-registry series names are preserved;
// sickle_shard_request_seconds_sum{route} is the _sum series of the
// sickle_shard_request_seconds histogram.
type Metrics struct {
	tier.RequestSeries

	up           *obs.GaugeVec
	routed       *obs.CounterVec
	failed       *obs.CounterVec
	failovers    *obs.Counter
	ejections    *obs.Counter
	readmissions *obs.Counter

	ownerDedupHits      *obs.Counter
	ownerReplications   *obs.CounterVec
	ownerReplFailures   *obs.Counter
	rebalances          *obs.Counter
	rebalanceMovedShare *obs.Gauge
}

// newMetrics registers the shard series on reg.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		RequestSeries: tier.RequestSeries{
			Requests: reg.Counter("sickle_shard_requests_total",
				"Router requests, by route.", "route"),
			Errors: reg.Counter("sickle_shard_request_errors_total",
				"Router requests that returned an error, by route.", "route"),
			Seconds: reg.Histogram("sickle_shard_request_seconds",
				"Router request latency in seconds, by route.", nil, "route"),
		},
		up: reg.Gauge("sickle_shard_replica_up",
			"Replica liveness (1 up, 0 ejected).", "replica"),
		routed: reg.Counter("sickle_shard_routed_requests_total",
			"Requests successfully served, by replica.", "replica"),
		failed: reg.Counter("sickle_shard_failed_requests_total",
			"Downstream calls that failed, by replica.", "replica"),
		failovers: reg.Counter("sickle_shard_failovers_total",
			"Requests retried on a non-primary ring node.").With(),
		ejections: reg.Counter("sickle_shard_ejections_total",
			"Replicas ejected from the ring.").With(),
		readmissions: reg.Counter("sickle_shard_readmissions_total",
			"Replicas re-admitted to the ring.").With(),
		ownerDedupHits: reg.Counter("sickle_shard_owner_dedup_hits_total",
			"Keyed resubmissions answered from a job already held by an owner-set member.").With(),
		ownerReplications: reg.Counter("sickle_shard_owner_replications_total",
			"Keyed submissions replicated to a non-primary owner, by replica.", "replica"),
		ownerReplFailures: reg.Counter("sickle_shard_owner_replication_failures_total",
			"Replication fan-out attempts that failed (the primary copy still exists).").With(),
		rebalances: reg.Counter("sickle_shard_rebalances_total",
			"Ring membership changes that moved keyspace ownership (joins and leaves).").With(),
		rebalanceMovedShare: reg.Gauge("sickle_shard_rebalance_moved_share",
			"Estimated share of the keyspace whose primary owner moved in the last rebalance.").With(),
	}
}

// SetUp records a replica's liveness gauge.
func (m *Metrics) SetUp(replica string, up bool) {
	v := 0.0
	if up {
		v = 1
	}
	m.up.With(replica).Set(v)
}

// ObserveRouted counts one request successfully served by replica.
func (m *Metrics) ObserveRouted(replica string) {
	m.routed.With(replica).Inc()
}

// ObserveFailed counts one downstream call replica refused: unavailable,
// overloaded or shutting down.
func (m *Metrics) ObserveFailed(replica string) {
	m.failed.With(replica).Inc()
}
