package tsdb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// t0 is where the tests' scripted time starts: they stamp each Sample and
// place each cutoff themselves, so timestamps and windows are exact.
var t0 = time.Unix(1_700_000_000, 0)

// findSeries pulls one named series out of a Query result.
func findSeries(t *testing.T, out []Series, name string) Series {
	t.Helper()
	for _, sr := range out {
		if sr.Name == name {
			return sr
		}
	}
	t.Fatalf("series %q not in query result (%d series)", name, len(out))
	return Series{}
}

func TestCounterDeltasAndResetAbsorption(t *testing.T) {
	reg := obs.NewRegistry()
	cur := 0.0
	var mu sync.Mutex
	reg.CounterFunc("test_jobs_total", "h", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return cur
	})
	set := func(v float64) { mu.Lock(); cur = v; mu.Unlock() }

	s := NewStore("test", reg, time.Second, 16)
	// Scripted cumulative values: 10, 25, 25, then a restart back to 3.
	for i, v := range []float64{10, 25, 25, 3} {
		set(v)
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}

	sr := findSeries(t, s.Query(nil, time.Time{}), "test_jobs_total")
	if sr.Kind != "counter" {
		t.Fatalf("kind = %q, want counter", sr.Kind)
	}
	// First sample primes with the full value; the reset (25 -> 3) must
	// record the new value as the increase, not a negative delta.
	want := []float64{10, 15, 0, 3}
	if len(sr.Points) != len(want) {
		t.Fatalf("got %d points, want %d", len(sr.Points), len(want))
	}
	for i, p := range sr.Points {
		if p.V != want[i] {
			t.Errorf("point %d delta = %g, want %g", i, p.V, want[i])
		}
	}
}

func TestRingWraparoundKeepsNewestOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("test_depth", "h").With()

	s := NewStore("test", reg, time.Second, 4)
	for i := 1; i <= 10; i++ {
		g.Set(float64(i))
		s.Sample(t0.Add(time.Duration(i) * time.Second))
	}

	sr := findSeries(t, s.Query(nil, time.Time{}), "test_depth")
	if len(sr.Points) != 4 {
		t.Fatalf("ring kept %d points, want capacity 4", len(sr.Points))
	}
	for i, p := range sr.Points {
		if want := float64(7 + i); p.V != want {
			t.Errorf("point %d = %g, want %g (oldest first after wrap)", i, p.V, want)
		}
		if i > 0 && sr.Points[i].T <= sr.Points[i-1].T {
			t.Errorf("points not time-ordered: %g after %g", sr.Points[i].T, sr.Points[i-1].T)
		}
	}
}

func TestHistogramBucketDeltasAndExemplars(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("test_seconds", "h", []float64{0.1, 0.5}, "route")
	obsv := h.With("/infer")

	s := NewStore("test", reg, time.Second, 16)
	obsv.ObserveEx(0.05, "trace-a")
	obsv.ObserveEx(0.3, "trace-b")
	s.Sample(t0)
	obsv.ObserveEx(0.05, "trace-c")
	obsv.ObserveEx(2.0, "trace-d")
	s.Sample(t0.Add(time.Second))

	sr := findSeries(t, s.Query([]string{"test_seconds"}, time.Time{}), "test_seconds")
	if sr.Kind != "histogram" || len(sr.Buckets) != 2 {
		t.Fatalf("series = %+v, want histogram with 2 finite buckets", sr)
	}
	if sr.Labels["route"] != "/infer" {
		t.Fatalf("labels = %v, want route=/infer", sr.Labels)
	}
	if len(sr.HistPoints) != 2 {
		t.Fatalf("got %d hist points, want 2", len(sr.HistPoints))
	}
	// Interval 1: one obs <= 0.1, one in (0.1, 0.5]. Interval 2: one
	// <= 0.1, one beyond the last bound (+Inf bucket).
	p0, p1 := sr.HistPoints[0], sr.HistPoints[1]
	if fmt.Sprint(p0.Counts) != "[1 1 0]" || p0.Count != 2 {
		t.Errorf("interval 1 deltas = %v count %d, want [1 1 0] count 2", p0.Counts, p0.Count)
	}
	if fmt.Sprint(p1.Counts) != "[1 0 1]" || p1.Count != 2 {
		t.Errorf("interval 2 deltas = %v count %d, want [1 0 1] count 2", p1.Counts, p1.Count)
	}
	// Exemplars surface the latest trace ID per bucket in the JSON view.
	if sr.Exemplars["0.1"] != "trace-c" || sr.Exemplars["+Inf"] != "trace-d" {
		t.Errorf("exemplars = %v, want 0.1->trace-c and +Inf->trace-d", sr.Exemplars)
	}
}

func TestQueryGlobAndSince(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("app_requests_total", "h").With()
	reg.Gauge("app_depth", "h").With().Set(1)
	reg.Gauge("other_depth", "h").With().Set(2)

	s := NewStore("test", reg, time.Second, 16)
	a.Inc()
	s.Sample(t0)
	cut := t0.Add(10 * time.Second)
	a.Inc()
	s.Sample(cut)

	if got := s.Query([]string{"app_*"}, time.Time{}); len(got) != 2 {
		t.Fatalf("glob app_* matched %d series, want 2", len(got))
	}
	if got := s.Query([]string{"other_depth"}, time.Time{}); len(got) != 1 {
		t.Fatalf("exact name matched %d series, want 1", len(got))
	}
	sr := findSeries(t, s.Query([]string{"app_requests_total"}, cut), "app_requests_total")
	if len(sr.Points) != 1 {
		t.Fatalf("since cutoff kept %d points, want 1", len(sr.Points))
	}
}

func TestAggregatorsOverWindows(t *testing.T) {
	reg := obs.NewRegistry()
	req := reg.Counter("req_total", "h", "route")
	depth := reg.Gauge("depth", "h").With()

	s := NewStore("test", reg, time.Second, 64)
	// t=0: 10 on /a, 1 on /b, depth 5.
	for i := 0; i < 10; i++ {
		req.With("/a").Inc()
	}
	req.With("/b").Inc()
	depth.Set(5)
	s.Sample(t0)
	// t=30s: 4 more on /a, depth 90.
	for i := 0; i < 4; i++ {
		req.With("/a").Inc()
	}
	depth.Set(90)
	s.Sample(t0.Add(30 * time.Second))
	now := t0.Add(31 * time.Second)

	// Narrow window sees only the second sample; wide window both.
	route := func(r string) func(*Series) bool {
		return func(sr *Series) bool { return sr.Name == "req_total" && sr.Labels["route"] == r }
	}
	if got := Window(s.Query([]string{"req_total"}, now.Add(-5*time.Second)), 0, route("/a")).Total; got != 4 {
		t.Errorf("Window narrow = %g, want 4", got)
	}
	all := s.Query(nil, time.Time{})
	if got := Window(all, unixSec(now.Add(-5*time.Second)), route("/a")).Total; got != 4 {
		t.Errorf("Window narrow by since = %g, want 4", got)
	}
	if got := Window(all, unixSec(now.Add(-time.Hour)), route("/a")).Total; got != 14 {
		t.Errorf("Window wide = %g, want 14", got)
	}
	// No label constraint sums across routes.
	if got := Window(s.Query([]string{"req_total"}, now.Add(-time.Hour)), 0, nil).Total; got != 15 {
		t.Errorf("Window all routes = %g, want 15", got)
	}
	if got := Window(s.Query([]string{"depth"}, now.Add(-time.Hour)), 0, nil).Gauge; fmt.Sprint(got) != "[5 90]" {
		t.Errorf("Window gauge samples = %v, want [5 90]", got)
	}
}

// TestWindowMatchesBruteForce samples random registry histories (counter
// increments and restarts, histogram observations, gauge values, three
// label sets, one of them born mid-history) through a real Store, then sums
// random windows of them with Query + Window and checks each sum against
// the per-interval deltas the test itself recorded.
func TestWindowMatchesBruteForce(t *testing.T) {
	routes := []string{"/a", "/b", "/c"}
	bounds := []float64{0.1, 0.5, 1}
	// interval is what one route added in one sampling interval.
	type interval struct {
		req    float64
		counts []uint64
		depth  float64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.NewRegistry()
		req := reg.Counter("req_total", "h", "route")
		lat := reg.Histogram("req_seconds", "h", bounds, "route")
		depth := reg.Gauge("depth", "h", "route")
		restarted := 0.0 // the cumulative value of a counter whose process restarts
		reg.CounterFunc("jobs_total", "h", func() float64 { return restarted })

		steps := 5 + rng.Intn(30)
		born := map[string]int{"/a": 0, "/b": 0, "/c": rng.Intn(steps)}
		want := make([]map[string]*interval, steps) // nil before a route is born
		jobs := make([]float64, steps)
		s := NewStore("prop", reg, time.Second, 64)
		for i := range steps {
			want[i] = map[string]*interval{}
			for _, r := range routes {
				if i < born[r] {
					continue
				}
				iv := &interval{counts: make([]uint64, len(bounds)+1), depth: float64(rng.Intn(100))}
				iv.req = float64(rng.Intn(5))
				req.With(r).Add(iv.req)
				lat.With(r)
				for range rng.Intn(4) {
					v := rng.Float64() * 1.5
					lat.With(r).Observe(v)
					b := 0
					for b < len(bounds) && v > bounds[b] {
						b++
					}
					iv.counts[b]++
				}
				depth.With(r).Set(iv.depth)
				want[i][r] = iv
			}
			// A restart that leaves the counter below its last value is
			// one the store must see: the new value is the whole increase.
			jobs[i] = float64(rng.Intn(6))
			if restarted > jobs[i] && rng.Intn(4) == 0 {
				restarted = jobs[i]
			} else {
				restarted += jobs[i]
			}
			s.Sample(t0.Add(time.Duration(i) * time.Second))
		}

		for range 10 {
			// A cutoff between samples, or exactly on one.
			cut := t0.Add(time.Duration(rng.Intn(1000*(steps+2))-1000) * time.Millisecond)
			if rng.Intn(3) == 0 {
				cut = t0.Add(time.Duration(rng.Intn(steps)) * time.Second)
			}
			r := routes[rng.Intn(len(routes))]
			var wantReq, wantAll, wantJobs float64
			var wantDepth []float64
			var wantCounts []uint64
			var wantCount uint64
			var wantBounds []float64
			first, last, firstAll := 0.0, 0.0, 0.0
			for i := range steps {
				at := t0.Add(time.Duration(i) * time.Second)
				if at.Before(cut) {
					continue
				}
				wantJobs += jobs[i]
				for _, other := range routes {
					if iv := want[i][other]; iv != nil {
						wantAll += iv.req
						if firstAll == 0 {
							firstAll = unixSec(at)
						}
					}
				}
				iv := want[i][r]
				if iv == nil {
					continue
				}
				if first == 0 {
					first = unixSec(at)
					wantBounds, wantCounts = bounds, make([]uint64, len(bounds)+1)
				}
				last = unixSec(at)
				wantReq += iv.req
				wantDepth = append(wantDepth, iv.depth)
				for b, c := range iv.counts {
					wantCounts[b] += c
					wantCount += c
				}
			}

			named := func(name string) func(*Series) bool {
				return func(sr *Series) bool { return sr.Name == name }
			}
			label := func(name string) func(*Series) bool {
				return func(sr *Series) bool { return sr.Name == name && sr.Labels["route"] == r }
			}
			got := s.Query(nil, cut)
			if w := Window(got, 0, label("req_total")); w.Total != wantReq || w.First != first || w.Last != last {
				t.Fatalf("seed %d cut %v %s: req = %g over [%g, %g], want %g over [%g, %g]",
					seed, cut, r, w.Total, w.First, w.Last, wantReq, first, last)
			}
			if w := Window(got, 0, named("jobs_total")); w.Total != wantJobs {
				t.Fatalf("seed %d cut %v: restarted counter = %g, want %g", seed, cut, w.Total, wantJobs)
			}
			if w := Window(got, 0, label("depth")); fmt.Sprint(w.Gauge) != fmt.Sprint(wantDepth) {
				t.Fatalf("seed %d cut %v %s: gauge = %v, want %v", seed, cut, r, w.Gauge, wantDepth)
			}
			// Every route at once, newest-born series first, as a fleet
			// payload may list them, cut by Window's own since.
			all := s.Query([]string{"req_total"}, time.Time{})
			slices.Reverse(all)
			if w := Window(all, unixSec(cut), nil); w.Total != wantAll || w.First != firstAll {
				t.Fatalf("seed %d cut %v: every route = %g from %g, want %g from %g",
					seed, cut, w.Total, w.First, wantAll, firstAll)
			}
			h := Window(s.Query(nil, time.Time{}), unixSec(cut), label("req_seconds"))
			if fmt.Sprint(h.Counts) != fmt.Sprint(wantCounts) || h.Count != wantCount ||
				fmt.Sprint(h.Buckets) != fmt.Sprint(wantBounds) {
				t.Fatalf("seed %d cut %v %s: histogram = %v (%d) over %v, want %v (%d) over %v",
					seed, cut, r, h.Counts, h.Count, h.Buckets, wantCounts, wantCount, wantBounds)
			}
		}
	}
}

func TestHandleHistoryJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "h").With().Inc()
	s := NewStore("test", reg, time.Second, 8)
	s.Sample(t0)

	rec := httptest.NewRecorder()
	s.HandleHistory(rec, httptest.NewRequest("GET", "/debug/history?series=x_total&since=5m", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var p Payload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Tier != "test" || p.IntervalSeconds != 1 || len(p.Series) != 1 {
		t.Fatalf("payload = %+v, want tier test, 1s interval, 1 series", p)
	}

	rec = httptest.NewRecorder()
	s.HandleHistory(rec, httptest.NewRequest("GET", "/debug/history?since=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad since: status = %d, want 400", rec.Code)
	}
}

// TestConcurrentSampleAndQuery races writers, the sampler, and readers,
// each a fixed number of operations; run under -race this is the store's
// memory-safety proof.
func TestConcurrentSampleAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("stress_total", "h", "worker")
	h := reg.Histogram("stress_seconds", "h", nil, "worker")
	c.With("w0").Inc() // the sampler's first pass has a series to record

	s := NewStore("stress", reg, time.Millisecond, 32)
	s.Start()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < 5000; i++ {
				c.With(id).Inc()
				h.With(id).ObserveEx(float64(i%10)/100, "t-"+id)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				since := time.Now().Add(-time.Second)
				s.Query([]string{"stress_*"}, time.Time{})
				Window(s.Query([]string{"stress_total"}, since), 0, nil)
				Window(s.Query([]string{"stress_seconds"}, since), 0, nil)
			}
		}()
	}
	wg.Wait()
	s.Stop()

	if got := s.Query(nil, time.Time{}); len(got) == 0 {
		t.Fatal("stress run recorded no series")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Start()
	s.Stop()
	s.Sample(time.Now())
	if s.Query(nil, time.Time{}) != nil {
		t.Error("nil store Query should return nil")
	}
	if w := Window(s.Query([]string{"x"}, time.Time{}), 0, nil); w.Total != 0 || w.Counts != nil {
		t.Error("a window of a nil store's history should be empty")
	}
}
