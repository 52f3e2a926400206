package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

// TestMetricsExpositionLint drives real traffic through the handler and
// then checks /metrics for le-bucketed request histograms, build info, and
// every pre-registry series name intact. The exposition format itself is
// internal/obs's property test of Registry.Render.
func TestMetricsExpositionLint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Touch the surfaces whose series the assertions below expect.
	if _, code, err := doInfer(ts.URL, api.InferRequest{
		Model: "m", Items: []api.InferItem{randomItem(rand.New(rand.NewSource(5)))},
	}); err != nil || code != 200 {
		t.Fatalf("infer: HTTP %d, err %v", code, err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()

	for _, want := range []string{
		`sickle_request_seconds_bucket{route="/v2/infer",le="`,
		`sickle_request_seconds_sum{route="/v2/infer"}`,
		`sickle_request_seconds_count{route="/v2/infer"}`,
		"sickle_build_info{go_version=",
		"sickle_process_start_time_seconds",
		"sickle_go_goroutines",
		"sickle_tensor_pool_workers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, name := range []string{
		"sickle_requests_total", "sickle_request_errors_total",
		"sickle_batch_size", "sickle_inflight_requests",
		"sickle_rejected_requests_total", "sickle_queue_depth",
		"sickle_jobs", "sickle_cache_hits_total", "sickle_cache_misses_total",
		"sickle_cache_evictions_total", "sickle_cache_entries",
	} {
		if !strings.Contains(text, fmt.Sprintf("# TYPE %s ", name)) {
			t.Errorf("/metrics missing family %s", name)
		}
	}
}

// TestServeTraceEndpoints covers the serve tier's /debug/traces surface
// and that a traced job submission yields a job span in the same trace.
func TestServeTraceEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tc := api.TraceContext{TraceID: api.NewTraceID()}
	body, err := json.Marshal(api.InferRequest{
		Model: "m", Items: []api.InferItem{randomItem(rand.New(rand.NewSource(6)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v2/infer", bytes.NewReader(body))
	req.Header.Set(api.TraceHeader, tc.HeaderValue())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	deadline := time.Now().Add(2 * time.Second)
	for len(s.Tracer().Spans(tc.TraceID)) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d spans recorded", len(s.Tracer().Spans(tc.TraceID)))
		}
		time.Sleep(time.Millisecond)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+tc.TraceID, nil))
	if rec.Code != 200 {
		t.Fatalf("debug trace: HTTP %d", rec.Code)
	}
	var payload obs.TracePayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range payload.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"server:/v2/infer", "queue:m", "execute:m"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestJobSpanJoinsSubmitterTrace: a job submitted under a trace records a
// job:<type> span in that trace once it finishes.
func TestJobSpanJoinsSubmitterTrace(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	tracer := obs.NewTracer("serve", 16)
	jm.SetTracer(tracer)

	tc := api.TraceContext{TraceID: api.NewTraceID(), SpanID: api.NewSpanID()}
	ctx := api.WithTrace(context.Background(), tc)
	job, _, err := jm.Submit(ctx, api.JobSubsample,
		func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
			return &api.JobResult{}, nil
		}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := jm.Done(job.ID)
	<-done

	spans := tracer.Spans(tc.TraceID)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "job:subsample" || sp.ParentID != tc.SpanID {
		t.Errorf("span = %+v", sp)
	}
	if sp.Attrs["state"] != "succeeded" || sp.Attrs["id"] != job.ID {
		t.Errorf("attrs = %v", sp.Attrs)
	}
}
