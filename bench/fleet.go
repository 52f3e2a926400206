package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/pkg/api"
	"repro/pkg/client"
)

const fleetReplicas = 2

// fleet is the online system under test, all in this process: two
// serve.StartInProc replicas behind a shard.Router served on a loopback
// listener, reached only through pkg/client.
type fleet struct {
	replicas []*serve.InProc
	router   *shard.Router
	url      string
	served   chan error
	before   []promText // every tier's /metrics just before the traced window
}

// fleetTraceCapacity sizes every tier's span ring to hold a whole run, so
// obs.spans_dropped reads 0 unless a change makes a tier record far more
// spans per request; the default ring of 4096 wraps within seconds here.
const fleetTraceCapacity = 1 << 16

// startFleet boots the replicas (durable under dir/rN when durable is
// set) and the router with the given owner-set size; every other setting
// but the span-ring size is the program's default.
func startFleet(dir string, durable bool, replication int) (*fleet, error) {
	f := &fleet{served: make(chan error, 1)}
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		cfg := serve.Config{TraceCapacity: fleetTraceCapacity}
		if durable {
			cfg.DataDir = filepath.Join(dir, fmt.Sprintf("r%d", i))
		}
		p, err := serve.StartInProc(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		urls = append(urls, p.URL)
	}
	rt, err := shard.NewRouter(shard.Config{URLs: urls, Replication: replication, TraceCapacity: fleetTraceCapacity})
	if err != nil {
		f.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.router, f.url = rt, "http://"+l.Addr().String()
	rt.Start()
	go func() { f.served <- rt.Serve(l) }()
	return f, nil
}

// close stops the router, then the replicas, and waits for each.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.router != nil {
		_ = f.router.Shutdown(ctx) // shutting down: nothing left to do with the error
		<-f.served
	}
	for _, p := range f.replicas {
		_ = p.Close(ctx) // likewise
	}
}

// countingTransport counts the HTTP requests an SDK client makes: the
// only outside view of how often WaitJob polled.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.next.RoundTrip(r)
}

// sdk is one caller: its own pkg/client (and so its own connection) to
// the router.
type sdk struct {
	c    *client.Client
	reqs *countingTransport
}

func newSDK(url string) *sdk {
	tr := &countingTransport{next: http.DefaultTransport.(*http.Transport).Clone()}
	return &sdk{c: client.New(url, client.WithHTTPClient(&http.Client{Transport: tr})), reqs: tr}
}

// scrape reads /metrics from the router and every replica, in that order.
func (f *fleet) scrape(ctx context.Context) ([]promText, error) {
	var out []promText
	for _, url := range append([]string{f.url}, replicaURLs(f.replicas)...) {
		text, err := client.New(url).MetricsText(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, parseProm(text))
	}
	return out, nil
}

// traceStart takes the scrape the traced window's counts start from.
func (f *fleet) traceStart(ctx context.Context) (err error) {
	f.before, err = f.scrape(ctx)
	return err
}

// windowDelta scrapes again and returns what every tier counted during
// the traced window, having recorded the counts both online workloads
// report.
func (f *fleet) windowDelta(ctx context.Context, rec *recorder) (promDelta, error) {
	after, err := f.scrape(ctx)
	if err != nil {
		return promDelta{}, err
	}
	d := promDelta{f.before, after}
	rec.count("shard.failovers", d.sum("sickle_shard_failovers_total"))
	rec.count("obs.spans_dropped", d.sum("sickle_obs_spans_dropped_total"))
	rec.count("shard.routed_skew", routedSkew(d, len(f.replicas)))
	return d, nil
}

// routedSkew is the busiest replica's routed requests over the mean: 1
// when the ring spreads the load evenly.
func routedSkew(d promDelta, replicas int) float64 {
	total, top := 0.0, 0.0
	for r := 0; r < replicas; r++ {
		n := d.sum("sickle_shard_routed_requests_total", fmt.Sprintf(`replica="r%d"`, r))
		total += n
		top = max(top, n)
	}
	return ratio(top*float64(replicas), total)
}

func replicaURLs(ps []*serve.InProc) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.URL)
	}
	return out
}

// tierSpanNames maps the program's span-name prefixes to layer names.
var tierSpanNames = []struct{ prefix, name string }{
	{"router:", "shard.router"},
	{"route:", "shard.route"},
	{"client:", "shard.client"},
	{"server:", "serve.server"},
	{"queue:", "serve.queue"},
	{"execute:", "serve.execute"},
	{"job:", "serve.job"},
}

// fetchTrace copies one request's spans from the router's merged
// /debug/traces/{id} view (router + every replica) into rec, under parent.
// The router closes its own span just after it has written the response,
// so a fetch racing that gets one short retry.
func fetchTrace(ctx context.Context, c *client.Client, traceID string, rec *recorder, op, parent int) error {
	var payload obs.TracePayload
	for attempt := 0; ; attempt++ {
		raw, err := c.DebugTraceJSON(ctx, traceID)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &payload); err != nil {
			return err
		}
		hasRouter := false
		for _, sp := range payload.Spans {
			hasRouter = hasRouter || strings.HasPrefix(sp.Name, "router:")
		}
		if hasRouter || attempt == 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ids := map[string]int{}
	for _, sp := range payload.Spans {
		for _, m := range tierSpanNames {
			if strings.HasPrefix(sp.Name, m.prefix) {
				ids[sp.SpanID] = rec.add(op, parent, m.name, sp.Start, sp.Seconds)
				break
			}
		}
	}
	for _, sp := range payload.Spans {
		id, ok := ids[sp.SpanID]
		if p, okp := ids[sp.ParentID]; ok && okp {
			rec.setParent(id, p)
		}
	}
	return nil
}

// tracedCtx gives every SDK call made under it one trace ID, so the
// tiers' spans for the op can be fetched afterwards.
func tracedCtx(ctx context.Context) (context.Context, string) {
	id := api.NewTraceID()
	return api.WithTrace(ctx, api.TraceContext{TraceID: id}), id
}

// traceEvery is how often a traced window fetches an op's tier spans.
const traceEvery = 20
