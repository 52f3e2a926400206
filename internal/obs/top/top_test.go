package top

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs/tsdb"
)

func TestQuantile(t *testing.T) {
	buckets := []float64{0.1, 0.5, 1}
	cases := []struct {
		name   string
		counts []uint64 // len(buckets)+1, +Inf last
		q      float64
		want   float64
	}{
		{"empty", []uint64{0, 0, 0, 0}, 0.99, 0},
		// 100 obs all in the first bucket: p50 interpolates to its middle.
		{"first-bucket", []uint64{100, 0, 0, 0}, 0.5, 0.05},
		// Uniform 50/50 across two buckets: p50 lands exactly on the
		// first bound, p99 interpolates deep into the second bucket.
		{"two-buckets-p50", []uint64{50, 50, 0, 0}, 0.5, 0.1},
		// rank 99 of 100; 49 of the 50 in-bucket observations below it.
		{"two-buckets-p99", []uint64{50, 50, 0, 0}, 0.99, 0.1 + 0.4*(49.0/50.0)},
		// Mass in +Inf clamps to the last finite bound.
		{"inf-clamp", []uint64{0, 0, 0, 10}, 0.99, 1},
	}
	for _, c := range cases {
		got := Quantile(buckets, c.counts, c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Quantile(q=%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
	if got := Quantile(nil, []uint64{5}, 0.5); got != 0 {
		t.Errorf("no finite buckets: got %g, want 0", got)
	}
}

func TestDeriveReplicaStats(t *testing.T) {
	// Two replicas' scattered series over a 10s span: r0 serves 100
	// requests with 10 errors, r1 serves 50 clean.
	pts := func(vals ...float64) []tsdb.Point {
		out := make([]tsdb.Point, len(vals))
		for i, v := range vals {
			out[i] = tsdb.Point{T: 1000 + float64(i)*5, V: v}
		}
		return out
	}
	p := &tsdb.Payload{IntervalSeconds: 5, Series: []tsdb.Series{
		{Name: "sickle_requests_total", Kind: "counter", Replica: "r0",
			Labels: map[string]string{"route": "/v2/infer"}, Points: pts(40, 30, 30)},
		{Name: "sickle_request_errors_total", Kind: "counter", Replica: "r0",
			Labels: map[string]string{"route": "/v2/infer"}, Points: pts(5, 5, 0)},
		{Name: "sickle_requests_total", Kind: "counter", Replica: "r1",
			Labels: map[string]string{"route": "/v2/infer"}, Points: pts(20, 20, 10)},
		{Name: "sickle_request_seconds", Kind: "histogram", Replica: "r0",
			Buckets: []float64{0.1, 0.5},
			HistPoints: []tsdb.HistPoint{
				{T: 1005, Counts: []uint64{90, 10, 0}, Count: 100},
			}},
		// An unrelated series must not perturb the stats.
		{Name: "sickle_queue_depth", Kind: "gauge", Replica: "r0", Points: pts(1, 2, 3)},
	}}

	stats := DeriveReplicaStats(p, time.Minute)
	if len(stats) != 2 {
		t.Fatalf("got %d replica rows, want 2: %+v", len(stats), stats)
	}
	r0, r1 := stats[0], stats[1]
	if r0.Replica != "r0" || r1.Replica != "r1" {
		t.Fatalf("rows not sorted by replica: %+v", stats)
	}
	if r0.Requests != 100 || r1.Requests != 50 {
		t.Errorf("requests = %g/%g, want 100/50", r0.Requests, r1.Requests)
	}
	// Three 5s points cover 15s: the 10s between the first and the last,
	// plus the interval that ends at the first.
	if math.Abs(r0.QPS-100.0/15) > 1e-9 || math.Abs(r1.QPS-50.0/15) > 1e-9 {
		t.Errorf("qps = %g/%g, want 100/15 and 50/15", r0.QPS, r1.QPS)
	}
	if math.Abs(r0.ErrorRate-0.1) > 1e-9 || r1.ErrorRate != 0 {
		t.Errorf("error rate = %g/%g, want 0.1/0", r0.ErrorRate, r1.ErrorRate)
	}
	if r0.P99 == 0 || r1.P99 != 0 {
		t.Errorf("p99 = %g/%g, want >0 for r0 (has histogram), 0 for r1", r0.P99, r1.P99)
	}

	// A narrow window anchored at the newest point drops the older
	// samples: only the t=1010 deltas remain.
	narrow := DeriveReplicaStats(p, 7*time.Second)
	for _, r := range narrow {
		switch r.Replica {
		case "r0":
			if r.Requests != 60 {
				t.Errorf("narrow r0 requests = %g, want 60 (last two samples)", r.Requests)
			}
		case "r1":
			if r.Requests != 30 {
				t.Errorf("narrow r1 requests = %g, want 30", r.Requests)
			}
		}
	}
	// One point is one interval: 2 requests in 20 ms are 100 QPS.
	one := DeriveReplicaStats(&tsdb.Payload{IntervalSeconds: 0.02, Series: []tsdb.Series{
		{Name: "sickle_shard_requests_total", Kind: "counter", Points: []tsdb.Point{{T: 1000, V: 2}}},
	}}, time.Minute)
	if len(one) != 1 || math.Abs(one[0].QPS-100) > 1e-9 {
		t.Errorf("one point: %+v, want 100 QPS", one)
	}
}

func TestRenderEmptySnapshot(t *testing.T) {
	s := &Snapshot{Target: "http://x", Time: time.Unix(0, 0),
		Errors: []string{"healthz: connection refused"}}
	out := Render(s, false)
	if out == "" {
		t.Fatal("empty snapshot rendered nothing")
	}
	out = Render(s, true)
	if out == "" {
		t.Fatal("color render produced nothing")
	}
}
