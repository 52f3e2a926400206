package tier_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tier"
	"repro/pkg/api"
)

// serveAllow is the v2 surface's method table: what a typed 405 on each
// path must advertise. The router serves the same table plus its admin API.
var serveAllow = map[string]string{
	"/api/version":        "GET",
	"/v2/infer":           "POST",
	"/v2/subsample":       "POST",
	"/v2/models":          "GET, POST",
	"/v2/jobs":            "GET, POST",
	"/v2/jobs/j-1":        "GET, DELETE",
	"/v2/jobs/j-1/result": "GET",
	"/v2/keys/k-1":        "GET",
}

func routerAllow() map[string]string {
	m := map[string]string{
		"/admin/replicas":    "GET, POST",
		"/admin/replicas/r9": "DELETE",
	}
	for path, allow := range serveAllow {
		m[path] = allow
	}
	return m
}

// do drives one request through a tier's handler and decodes the typed
// error envelope, if the body is one.
func do(h http.Handler, method, path, body, traceHeader string) (*httptest.ResponseRecorder, *api.Error) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if traceHeader != "" {
		req.Header.Set(api.TraceHeader, traceHeader)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env api.ErrorEnvelope
	if json.Unmarshal(rec.Body.Bytes(), &env) != nil {
		return rec, nil
	}
	return rec, env.Error
}

// series reads one un-bucketed sample from a /metrics exposition (0 when
// the series has not appeared yet).
func series(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rec, _ := do(h, "GET", "/metrics", "", "")
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestTierContract drives a serve handler and a shard handler through the
// same cases: everything here is chassis behaviour, so both tiers must
// answer identically apart from their span prefix and series namespace.
func TestTierContract(t *testing.T) {
	ctx := context.Background()
	replica, err := serve.StartInProc(serve.Config{MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close(ctx)
	router, err := shard.NewRouter(shard.Config{URLs: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(ctx)

	// Park the replica's only job slot so submissions are refused as
	// overloaded for as long as the test runs.
	release := make(chan struct{})
	defer close(release)
	if _, _, err := replica.Server.Jobs().Submit(ctx, api.JobSubsample,
		func(ctx context.Context, _ func(string, int, int)) (*api.JobResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &api.JobResult{}, nil
		}, serve.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		chassis    *tier.Tier
		spanPrefix string
		seriesNS   string
		allow      map[string]string
	}{
		{"serve", replica.Server.Tier, "server:", "sickle_", serveAllow},
		{"shard", router.Tier, "router:", "sickle_shard_", routerAllow()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.chassis.Handler()

			// A request is counted once in requests, errors and seconds,
			// and its trace ID rides on the latency histogram as an
			// exemplar. (First, while the route's counts are still this
			// tier's alone.)
			const route = "/v2/keys/{key}"
			label := `{route="` + route + `"}`
			requests := tc.seriesNS + "requests_total" + label
			errors := tc.seriesNS + "request_errors_total" + label
			seconds := tc.seriesNS + "request_seconds_count" + label
			before := []float64{series(t, h, requests), series(t, h, errors), series(t, h, seconds)}
			counted := api.TraceContext{TraceID: api.NewTraceID(), SpanID: api.NewSpanID()}
			if rec, ae := do(h, "GET", "/v2/keys/k-1", "", counted.HeaderValue()); rec.Code != http.StatusNotFound || ae == nil || ae.Code != api.CodeJobNotFound {
				t.Fatalf("by-key miss = %d %+v, want typed job_not_found", rec.Code, ae)
			}
			for i, name := range []string{requests, errors, seconds} {
				if got := series(t, h, name) - before[i]; got != 1 {
					t.Errorf("%s moved by %v for one failed request, want 1", name, got)
				}
			}
			tc.chassis.History().Sample(time.Now())
			exemplar := false
			for _, s := range tc.chassis.History().Query([]string{tc.seriesNS + "request_seconds"}, time.Time{}) {
				if s.Labels["route"] != route {
					continue
				}
				for _, id := range s.Exemplars {
					exemplar = exemplar || id == counted.TraceID
				}
			}
			if !exemplar {
				t.Errorf("trace %s is not an exemplar of %srequest_seconds%s", counted.TraceID, tc.seriesNS, label)
			}

			// A trace header is joined: the request span is a child of the
			// caller's span, in the caller's trace.
			joined := false
			for _, sp := range tc.chassis.Tracer().Spans(counted.TraceID) {
				joined = joined || (sp.Name == tc.spanPrefix+route && sp.ParentID == counted.SpanID)
			}
			if !joined {
				t.Errorf("no %s%s span under the caller's span %s", tc.spanPrefix, route, counted.SpanID)
			}
			// No header: the tier mints a trace, rooted at its own span.
			if rec, _ := do(h, "GET", "/healthz", "", ""); rec.Code != http.StatusOK {
				t.Fatalf("healthz = %d", rec.Code)
			}
			minted := false
			for _, info := range tc.chassis.Tracer().Traces(0) {
				for _, sp := range tc.chassis.Tracer().Spans(info.TraceID) {
					minted = minted || (sp.Name == tc.spanPrefix+"/healthz" && sp.ParentID == "" && len(sp.TraceID) == 16)
				}
			}
			if !minted {
				t.Errorf("headerless request left no parentless %s/healthz span", tc.spanPrefix)
			}

			// Typed 405 whose Allow lists exactly the registered methods:
			// every other method earns it, no listed method does.
			for path, allow := range tc.allow {
				for _, method := range []string{"GET", "POST", "PUT", "PATCH", "DELETE"} {
					rec, ae := do(h, method, path, "", "")
					if slices.Contains(strings.Split(allow, ", "), method) {
						if rec.Code == http.StatusMethodNotAllowed {
							t.Errorf("%s %s = 405, but Allow advertises it", method, path)
						}
						continue
					}
					if rec.Code != http.StatusMethodNotAllowed || ae == nil || ae.Code != api.CodeMethodNotAllowed {
						t.Errorf("%s %s = %d %+v, want typed 405", method, path, rec.Code, ae)
					}
					if got := rec.Header().Get("Allow"); got != allow {
						t.Errorf("%s %s: Allow = %q, want %q", method, path, got, allow)
					}
				}
			}

			// Typed 404 under /v2/ instead of the mux's plain-text page.
			if rec, ae := do(h, "GET", "/v2/no-such-route", "", ""); rec.Code != http.StatusNotFound || ae == nil || ae.Code != api.CodeNotFound {
				t.Errorf("unknown /v2/ path = %d %+v, want typed not_found", rec.Code, ae)
			}

			// Malformed JSON is the caller's fault, typed.
			if rec, ae := do(h, "POST", "/v2/infer", "{", ""); rec.Code != http.StatusBadRequest || ae == nil || ae.Code != api.CodeInvalidArgument {
				t.Errorf("bad JSON = %d %+v, want typed invalid_argument", rec.Code, ae)
			}

			// Backpressure carries Retry-After (through the router too: the
			// replica's refusal is relayed, not rewritten).
			sub := `{"type":"subsample","subsample":{"dataset":"GESTS-2048","cube":8,"numHypercubes":2,"numSamples":16,"seed":1}}`
			rec, ae := do(h, "POST", "/v2/jobs", sub, "")
			if rec.Code != http.StatusTooManyRequests || ae == nil || ae.Code != api.CodeOverloaded {
				t.Fatalf("submit with the job slot parked = %d %+v, want typed overloaded", rec.Code, ae)
			}
			if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs <= 0 {
				t.Errorf("429 Retry-After = %q, want a positive number of seconds", rec.Header().Get("Retry-After"))
			}
		})
	}
}
