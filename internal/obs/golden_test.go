package obs

import (
	"reflect"
	"testing"
)

// goldenRegistry holds one family of every kind the registry renders: a
// labelled and an unlabelled counter, a gauge, labelled and unlabelled
// histograms (one with exemplars), the three -Func probes, a family with
// no series yet and a label value that needs escaping.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	req := reg.Counter("golden_requests_total", "Requests served.", "route", "code")
	req.With("/v2/infer", "200").Add(3)
	req.With("/healthz", "200").Inc()
	reg.Counter("golden_hits_total", "Hits.").With().Add(2)
	reg.Gauge("golden_inflight", "In flight.").With().Set(1.5)
	h := reg.Histogram("golden_seconds", "Latency.", []float64{0.1, 1}, "route")
	h.With("/v2/infer").ObserveEx(0.05, "trace-a")
	h.With("/v2/infer").Observe(0.5)
	h.With("/v2/infer").ObserveEx(5, "trace-c")
	h.With("/healthz").Observe(0.01)
	reg.Histogram("golden_batch", "Batch sizes.", []float64{1, 8}).With().Observe(4)
	reg.GaugeFunc("golden_live", "Live gauge.", func() float64 { return 42 })
	reg.CounterFunc("golden_live_total", "Live counter.", func() float64 { return 7 })
	reg.GaugeMapFunc("golden_map", "Live map.", "k", func() map[string]float64 {
		return map[string]float64{"b": 2, "a": 1}
	})
	reg.Counter("golden_unused_total", "Registered, never incremented.", "route")
	reg.Gauge("golden_esc", "Escaped label.", "v").With(`a"b\c` + "\n").Set(-1)
	return reg
}

// goldenRender is goldenRegistry's exposition as the two-walk renderer
// produced it; the frozen bench parses /metrics, so not a byte may move.
const goldenRender = `# HELP golden_batch Batch sizes.
# TYPE golden_batch histogram
golden_batch_bucket{le="1"} 0
golden_batch_bucket{le="8"} 1
golden_batch_bucket{le="+Inf"} 1
golden_batch_sum 4
golden_batch_count 1
# HELP golden_esc Escaped label.
# TYPE golden_esc gauge
golden_esc{v="a\"b\\c\n"} -1
# HELP golden_hits_total Hits.
# TYPE golden_hits_total counter
golden_hits_total 2
# HELP golden_inflight In flight.
# TYPE golden_inflight gauge
golden_inflight 1.5
# HELP golden_live Live gauge.
# TYPE golden_live gauge
golden_live 42
# HELP golden_live_total Live counter.
# TYPE golden_live_total counter
golden_live_total 7
# HELP golden_map Live map.
# TYPE golden_map gauge
golden_map{k="a"} 1
golden_map{k="b"} 2
# HELP golden_requests_total Requests served.
# TYPE golden_requests_total counter
golden_requests_total{route="/healthz",code="200"} 1
golden_requests_total{route="/v2/infer",code="200"} 3
# HELP golden_seconds Latency.
# TYPE golden_seconds histogram
golden_seconds_bucket{route="/healthz",le="0.1"} 1
golden_seconds_bucket{route="/healthz",le="1"} 1
golden_seconds_bucket{route="/healthz",le="+Inf"} 1
golden_seconds_sum{route="/healthz"} 0.01
golden_seconds_count{route="/healthz"} 1
golden_seconds_bucket{route="/v2/infer",le="0.1"} 1
golden_seconds_bucket{route="/v2/infer",le="1"} 2
golden_seconds_bucket{route="/v2/infer",le="+Inf"} 3
golden_seconds_sum{route="/v2/infer"} 5.55
golden_seconds_count{route="/v2/infer"} 3
# HELP golden_unused_total Registered, never incremented.
# TYPE golden_unused_total counter
`

func TestRenderGolden(t *testing.T) {
	if got := goldenRegistry().Render(); got != goldenRender {
		t.Errorf("Render moved:\n got:\n%s\nwant:\n%s", got, goldenRender)
	}
}

// snapshotAllocsCeiling is what Snapshot allocated on goldenRegistry when
// Render and Snapshot still walked the registry separately; the history
// sampler calls it every second in every process.
const snapshotAllocsCeiling = 58

func TestSnapshotAllocs(t *testing.T) {
	reg := goldenRegistry()
	route, k, v := []string{"route"}, []string{"k"}, []string{"v"}
	rc := []string{"route", "code"}
	want := []Sample{
		{Name: "golden_batch", Kind: "histogram", Buckets: []float64{1, 8},
			BucketCounts: []uint64{0, 1, 0}, Count: 1, Sum: 4, Exemplars: []string{"", "", ""}},
		{Name: "golden_esc", Kind: "gauge", LabelNames: v, LabelValues: []string{`a"b\c` + "\n"}, Value: -1},
		{Name: "golden_hits_total", Kind: "counter", Value: 2},
		{Name: "golden_inflight", Kind: "gauge", Value: 1.5},
		{Name: "golden_live", Kind: "gauge", Value: 42},
		{Name: "golden_live_total", Kind: "counter", Value: 7},
		{Name: "golden_map", Kind: "gauge", LabelNames: k, LabelValues: []string{"a"}, Value: 1},
		{Name: "golden_map", Kind: "gauge", LabelNames: k, LabelValues: []string{"b"}, Value: 2},
		{Name: "golden_requests_total", Kind: "counter", LabelNames: rc, LabelValues: []string{"/healthz", "200"}, Value: 1},
		{Name: "golden_requests_total", Kind: "counter", LabelNames: rc, LabelValues: []string{"/v2/infer", "200"}, Value: 3},
		{Name: "golden_seconds", Kind: "histogram", LabelNames: route, LabelValues: []string{"/healthz"},
			Buckets: []float64{0.1, 1}, BucketCounts: []uint64{1, 0, 0}, Count: 1, Sum: 0.01,
			Exemplars: []string{"", "", ""}},
		{Name: "golden_seconds", Kind: "histogram", LabelNames: route, LabelValues: []string{"/v2/infer"},
			Buckets: []float64{0.1, 1}, BucketCounts: []uint64{1, 1, 1}, Count: 3, Sum: 0.05 + 0.5 + 5,
			Exemplars: []string{"trace-a", "", "trace-c"}},
	}
	if got := reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot moved:\n got %#v\nwant %#v", got, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if n := testing.AllocsPerRun(100, func() { reg.Snapshot() }); n > snapshotAllocsCeiling {
		t.Errorf("Snapshot allocates %.0f objects per call, want <= %d", n, snapshotAllocsCeiling)
	}
}

// TestObserveAllocs: Observe is ObserveEx without an exemplar and, like the
// batcher, WAL and trainer histograms that call it, must not allocate; an
// exemplar costs the one string header the bucket keeps.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := NewRegistry().Histogram("observe_seconds", "h", nil).With()
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Observe allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.ObserveEx(0.01, "trace-a") }); n > 1 {
		t.Errorf("ObserveEx allocates %.0f objects per call, want <= 1", n)
	}
}
