package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestTracePropagationEndToEnd is the acceptance test for the tracing
// tentpole: one client infer through the router to a replica must produce
// ONE trace whose merged /debug/traces/<id> payload contains the router
// span, the route/client spans, and the replica's server/queue/execute
// spans — all sharing the trace ID the client minted, with a coherent
// parent chain.
func TestTracePropagationEndToEnd(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	closeCtx := context.Background()
	p1 := startReplica(t, "", ckpt)
	defer p1.Close(closeCtx)
	p2 := startReplica(t, "", ckpt)
	defer p2.Close(closeCtx)

	rt := newTestRouter(t, []string{p1.URL, p2.URL})
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	// Mint the trace client-side, exactly as an instrumented caller would.
	tc := api.TraceContext{TraceID: api.NewTraceID()}
	ctx := api.WithTrace(context.Background(), tc)
	c := client.New(srv.URL)
	if _, err := c.Infer(ctx, &api.InferRequest{
		Model: "m", Items: []api.InferItem{randomItem(rand.New(rand.NewSource(3)))},
	}); err != nil {
		t.Fatalf("infer: %v", err)
	}

	// The merged trace view from the router must carry all four tiers of
	// spans under the single client-minted trace ID. Spans are recorded as
	// handlers unwind (after the response flushes), so poll briefly.
	var payload obs.TracePayload
	fetchMerged := func() int {
		resp, err := http.Get(srv.URL + "/debug/traces/" + tc.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return 0
		}
		payload = obs.TracePayload{}
		if err := json.Unmarshal(raw, &payload); err != nil {
			t.Fatalf("decode: %v (%s)", err, raw)
		}
		return len(payload.Spans)
	}
	waitFor(t, "all six spans", 3*time.Second, func() bool { return fetchMerged() >= 6 })
	if payload.TraceID != tc.TraceID {
		t.Fatalf("payload trace = %q, want %q", payload.TraceID, tc.TraceID)
	}
	if len(payload.Spans) < 4 {
		t.Fatalf("got %d spans, want >= 4", len(payload.Spans))
	}
	byID := map[string]obs.Span{}
	var names []string
	for _, s := range payload.Spans {
		if s.TraceID != tc.TraceID {
			t.Errorf("span %s belongs to trace %q", s.Name, s.TraceID)
		}
		byID[s.SpanID] = s
		names = append(names, s.Name)
	}
	find := func(prefix string) obs.Span {
		t.Helper()
		for _, s := range payload.Spans {
			if strings.HasPrefix(s.Name, prefix) {
				return s
			}
		}
		t.Fatalf("no %q span in %v", prefix, names)
		return obs.Span{}
	}
	router := find("router:/v2/infer")
	route := find("route:m")
	clientSpan := find("client:")
	server := find("server:/v2/infer")
	queue := find("queue:m")
	execute := find("execute:m")

	// Parent chain: route under router, client attempt under route, the
	// replica's server span under the client attempt, queue/execute under
	// the server span.
	if route.ParentID != router.SpanID {
		t.Errorf("route parent = %q, want router %q", route.ParentID, router.SpanID)
	}
	if clientSpan.ParentID != route.SpanID {
		t.Errorf("client parent = %q, want route %q", clientSpan.ParentID, route.SpanID)
	}
	if server.ParentID != clientSpan.SpanID {
		t.Errorf("server parent = %q, want client %q", server.ParentID, clientSpan.SpanID)
	}
	if queue.ParentID != server.SpanID {
		t.Errorf("queue parent = %q, want server %q", queue.ParentID, server.SpanID)
	}
	if execute.ParentID != server.SpanID {
		t.Errorf("execute parent = %q, want server %q", execute.ParentID, server.SpanID)
	}
	if execute.Attrs["batch_size"] == "" {
		t.Error("execute span missing batch_size attr")
	}
	for _, tier := range []struct{ span, want string }{
		{router.Tier, "shard"}, {route.Tier, "shard"}, {clientSpan.Tier, "shard"},
		{server.Tier, "serve"}, {queue.Tier, "serve"}, {execute.Tier, "serve"},
	} {
		if tier.span != tier.want {
			t.Errorf("tier = %q, want %q", tier.span, tier.want)
		}
	}
}

// TestRouterTraceListAndMetricsLint covers the router's own observability
// surface: /debug/traces lists recorded traces, and /metrics carries
// le-bucketed latency histograms and build info.
func TestRouterTraceListAndMetricsLint(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	p := startReplica(t, "", ckpt)
	defer p.Close(context.Background())
	rt := newTestRouter(t, []string{p.URL})
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	c := client.New(srv.URL)
	if _, err := c.Infer(context.Background(), &api.InferRequest{
		Model: "m", Items: []api.InferItem{randomItem(rand.New(rand.NewSource(4)))},
	}); err != nil {
		t.Fatalf("infer: %v", err)
	}

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list obs.TraceListPayload
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if list.Tier != "shard" || len(list.Traces) == 0 {
		t.Fatalf("trace list = %+v", list)
	}

	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sickle_shard_request_seconds_bucket{route="/v2/infer",le="`,
		`sickle_shard_request_seconds_sum{route="/v2/infer"}`,
		`sickle_shard_request_seconds_count{route="/v2/infer"}`,
		`sickle_shard_replica_up{replica="r0"} 1`,
		"sickle_build_info{go_version=",
		"sickle_process_start_time_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	// Every pre-registry series name must still be present.
	for _, name := range []string{
		"sickle_shard_routed_requests_total", "sickle_shard_failovers_total",
		"sickle_shard_ejections_total", "sickle_shard_readmissions_total",
		"sickle_shard_requests_total",
	} {
		if !strings.Contains(text, fmt.Sprintf("# TYPE %s ", name)) {
			t.Errorf("router /metrics missing family %s", name)
		}
	}
}

// TestDebugSinceRule: /debug/history and /debug/events read since by one
// rule, on a replica and through the router's fleet-wide merge alike — a
// Go duration of zero or more, an RFC3339 time or nothing filters, anything
// else is a 400 rather than a silently unfiltered (or empty) answer.
func TestDebugSinceRule(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	p := startReplica(t, "", ckpt)
	defer p.Close(context.Background())
	rt := newTestRouter(t, []string{p.URL})
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		since string
		want  int
	}{
		{"5m", http.StatusOK},
		{time.Now().Add(-time.Hour).UTC().Format(time.RFC3339), http.StatusOK},
		{"", http.StatusOK},
		{"5mins", http.StatusBadRequest},
		{"garbage", http.StatusBadRequest},
		{"-5m", http.StatusBadRequest},
	} {
		for tier, base := range map[string]string{"serve": p.URL, "router": srv.URL} {
			for _, endpoint := range []string{"/debug/history", "/debug/events"} {
				resp, err := http.Get(base + endpoint + "?since=" + url.QueryEscape(tc.since))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s %s?since=%q = HTTP %d, want %d", tier, endpoint, tc.since, resp.StatusCode, tc.want)
				}
			}
		}
	}
}
