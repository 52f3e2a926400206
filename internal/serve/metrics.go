package serve

import (
	"repro/internal/obs"
	"repro/internal/tier"
)

// batchSizeBuckets are the upper bounds of the micro-batch size histogram.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Metrics is the service's own instrumentation on the chassis registry:
// the per-route request series the tier middleware counts on, the
// micro-batch size histogram, queue depth, job states, and cache counters.
// All pre-registry series names are preserved; sickle_request_seconds_sum
// {route} is the _sum series of the sickle_request_seconds histogram.
type Metrics struct {
	reg *obs.Registry
	tier.RequestSeries

	batch    *obs.Histogram
	rejected *obs.Counter
}

// newMetrics registers the serve series on reg.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		RequestSeries: tier.RequestSeries{
			Requests: reg.Counter("sickle_requests_total",
				"Requests served, by route.", "route"),
			Errors: reg.Counter("sickle_request_errors_total",
				"Requests that returned an error, by route.", "route"),
			Seconds: reg.Histogram("sickle_request_seconds",
				"Request latency in seconds, by route.", nil, "route"),
			Inflight: reg.Gauge("sickle_inflight_requests",
				"Requests currently being handled.").With(),
		},
		batch: reg.Histogram("sickle_batch_size",
			"Size of dispatched micro-batches.", batchSizeBuckets).With(),
		rejected: reg.Counter("sickle_rejected_requests_total",
			"Requests refused at admission because a bounded queue was full.").With(),
	}
}

// ObserveBatch records one forward pass over a micro-batch of the given
// size.
func (m *Metrics) ObserveBatch(size int) {
	m.batch.Observe(float64(size))
}

// ObserveRejected counts one request rejected for backpressure.
func (m *Metrics) ObserveRejected() {
	m.rejected.Inc()
}

// SetQueueDepthFunc installs the live queue-depth probe.
func (m *Metrics) SetQueueDepthFunc(f func() int) {
	m.reg.GaugeFunc("sickle_queue_depth",
		"Aggregate depth of the per-model batch queues.",
		func() float64 { return float64(f()) })
}

// bindJobStats installs the live job-state counter probe.
func (m *Metrics) bindJobStats(f func() map[string]int) {
	m.reg.GaugeMapFunc("sickle_jobs",
		"Jobs by lifecycle state.", "state",
		func() map[string]float64 {
			out := map[string]float64{}
			for state, n := range f() {
				out[state] = float64(n)
			}
			return out
		})
}

// bindCache installs the dataset/shard LRU probes.
func (m *Metrics) bindCache(cache *LRU) {
	m.reg.CounterFunc("sickle_cache_hits_total",
		"Inference cache hits.",
		func() float64 { h, _, _ := cache.Stats(); return float64(h) })
	m.reg.CounterFunc("sickle_cache_misses_total",
		"Inference cache misses.",
		func() float64 { _, mi, _ := cache.Stats(); return float64(mi) })
	m.reg.CounterFunc("sickle_cache_evictions_total",
		"Inference cache evictions.",
		func() float64 { _, _, e := cache.Stats(); return float64(e) })
	m.reg.GaugeFunc("sickle_cache_entries",
		"Entries currently resident in the inference cache.",
		func() float64 { return float64(cache.Len()) })
}
