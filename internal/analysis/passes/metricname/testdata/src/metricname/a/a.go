// Golden input for metricname: namespace/shape, unit suffixes,
// constant names, duplicate registration sites.
package a

import "repro/internal/obs"

func register(reg *obs.Registry, dynamic string) {
	reg.Counter("sickle_requests_total", "handled requests")
	reg.Counter("sickle_requests", "missing suffix") // want `counter "sickle_requests" must end in _total`
	reg.Counter("Sickle-Errors_total", "bad shape")  // want `must match sickle\(_\[a-z0-9\]\+\)\+`
	reg.Gauge("sickle_queue_depth", "queue depth")
	reg.Gauge("sickle_queue_total", "misnamed gauge") // want `gauge "sickle_queue_total" must not end in _total`
	reg.Histogram("sickle_latency_seconds", "latency", nil)
	reg.Histogram("sickle_latency", "no unit", nil) // want `must end in a unit suffix`
	reg.GaugeFunc("sickle_up", "liveness", func() float64 { return 1 })
	reg.Counter(dynamic, "unlintable") // want `must be a compile-time string constant`
	reg.Counter("sickle_dup_total", "first site")
	reg.Counter("sickle_dup_total", "second site") // want `"sickle_dup_total" already registered`
	//sicklevet:ignore metricname legacy dashboard series, renaming breaks alerts
	reg.Counter("legacy_requests", "suppressed")
}
