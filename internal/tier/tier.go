// Package tier is the chassis under the two online tiers, internal/serve
// and internal/shard. Both speak the pkg/api HTTP surface and both carry
// the same flight recorder, so everything that is not about batching or
// routing lives here once: the recorder bundle (metrics registry with the
// runtime gauges, span ring, event journal, metrics history, SLO engine,
// logger), the route table with its typed 405/404 fallbacks, the request
// middleware, the JSON envelope helpers, the one debug route table both the
// main listener and the -debug-addr sidecar mount, and the listen/serve/
// shutdown code. A tier embeds *Tier and adds only what is its own.
package tier

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/pkg/api"
)

// Config sizes the chassis. Each tier copies the matching flat fields of
// its own Config in; zero values select the recorder's documented defaults.
type Config struct {
	Name       string // tier label on spans, events and history ("serve", "shard")
	SpanPrefix string // request-span name prefix ("server:", "router:")
	Addr       string // listen address
	Logger     *slog.Logger

	TraceCapacity   int
	HistoryInterval time.Duration
	SLOs            []slo.Objective
	SLOMetrics      slo.MetricNames // the tier's request series, as the SLO engine names them
}

// RequestSeries are a tier's per-route request families, registered by the
// tier itself (the metricname analyzer wants each name a constant at its one
// registration site). Inflight is optional (nil handles no-op).
type RequestSeries struct {
	Requests *obs.CounterVec
	Errors   *obs.CounterVec
	Seconds  *obs.HistogramVec
	Inflight *obs.Gauge
}

// HandlerFunc is an API handler: it writes its own response (Reply,
// WriteJSON or WriteError) and returns the error it wrote, if any, for the
// middleware to account.
type HandlerFunc func(http.ResponseWriter, *http.Request) error

// Tier is the shared chassis; see the package comment.
type Tier struct {
	cfg     Config
	reg     *obs.Registry
	tracer  *obs.Tracer
	journal *events.Journal
	history *tsdb.Store
	sloEng  *slo.Engine
	series  RequestSeries

	mux     *http.ServeMux
	methods map[string][]string // path → methods registered, for Allow
	paths   []string            // method-qualified paths, in registration order
	httpSrv *http.Server
}

// New builds the recorder bundle, cross-registered once: the tracer's and
// the journal's eviction counters and the SLO gauges all land on the one
// registry the history store samples. The history sampler is not started;
// the owning tier does that when it goes live.
func New(cfg Config) *Tier {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	t := &Tier{
		cfg:     cfg,
		reg:     reg,
		tracer:  obs.NewTracer(cfg.Name, cfg.TraceCapacity),
		journal: events.NewJournal(cfg.Name, events.DefaultCapacity),
		history: tsdb.NewStore(cfg.Name, reg, cfg.HistoryInterval, tsdb.DefaultCapacity),
		mux:     http.NewServeMux(),
		methods: map[string][]string{},
	}
	t.tracer.RegisterDropped(reg)
	t.journal.Register(reg)
	t.sloEng = slo.NewEngine(cfg.Name, t.history, cfg.SLOMetrics, cfg.SLOs, reg, t.journal)
	return t
}

// MetricsRegistry exposes the registry behind /metrics (the tier's series).
func (t *Tier) MetricsRegistry() *obs.Registry { return t.reg }

// Tracer exposes the span ring behind /debug/traces.
func (t *Tier) Tracer() *obs.Tracer { return t.tracer }

// Journal exposes the event journal behind /debug/events.
func (t *Tier) Journal() *events.Journal { return t.journal }

// History exposes the metrics-history store behind /debug/history.
func (t *Tier) History() *tsdb.Store { return t.history }

// SLO exposes the burn-rate engine behind /debug/slo.
func (t *Tier) SLO() *slo.Engine { return t.sloEng }

// Logger returns the configured logger, or one that discards.
func (t *Tier) Logger() *slog.Logger { return t.cfg.Logger }

// CountRequests installs the series the middleware accounts every routed
// request on. Call it before the tier serves.
func (t *Tier) CountRequests(s RequestSeries) { t.series = s }

// Handle registers an instrumented API route. pattern is a ServeMux
// pattern, "POST /v2/infer" or a method-less "/healthz"; the path doubles
// as the route label on the request series and in the span name.
func (t *Tier) Handle(pattern string, h HandlerFunc) {
	path := pattern
	if method, p, qualified := strings.Cut(pattern, " "); qualified {
		path = p
		if t.methods[path] == nil {
			t.paths = append(t.paths, path)
		}
		t.methods[path] = append(t.methods[path], method)
	}
	t.mux.HandleFunc(pattern, t.instrument(path, h))
}

// Finish completes the route table and builds the HTTP server. It keeps
// the "every API failure is a typed envelope" contract for requests the
// method-qualified patterns do not match: a method-less registration per
// path loses to the specific pattern for the methods it serves and answers
// the rest with a typed 405 whose Allow lists exactly what was registered,
// and the /v2/ prefix turns unknown paths into a typed 404 instead of the
// mux's plain-text page. It also mounts the debug routes, fleet's handlers
// in place of those it names (the router's fleet-wide merges).
func (t *Tier) Finish(fleet map[string]http.HandlerFunc) {
	for _, path := range t.paths {
		allow := strings.Join(t.methods[path], ", ")
		t.mux.HandleFunc(path, t.instrument(path, func(w http.ResponseWriter, _ *http.Request) error {
			w.Header().Set("Allow", allow)
			return WriteError(w, api.Errorf(api.CodeMethodNotAllowed, "%s only", allow))
		}))
	}
	t.mux.HandleFunc("/v2/", t.instrument("/v2/", func(w http.ResponseWriter, r *http.Request) error {
		return WriteError(w, api.Errorf(api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	}))
	t.mountDebug(t.mux, fleet)
	t.httpSrv = &http.Server{Addr: t.cfg.Addr, Handler: t.mux}
}

// mountDebug registers the one debug route table, /metrics and the five
// recorder views, on mux, fleet's handlers in place of those it names.
func (t *Tier) mountDebug(mux *http.ServeMux, fleet map[string]http.HandlerFunc) {
	routes := map[string]http.HandlerFunc{
		"/metrics":               t.reg.HandleMetrics,
		"GET /debug/traces":      t.tracer.HandleTraceList,
		"GET /debug/traces/{id}": t.tracer.HandleTraceByID,
		"GET /debug/history":     t.history.HandleHistory,
		"GET /debug/events":      t.journal.HandleEvents,
		"GET /debug/slo":         t.sloEng.HandleSLO,
	}
	maps.Copy(routes, fleet)
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
	}
}

// Handler returns the finished route mux (also usable under httptest).
func (t *Tier) Handler() http.Handler { return t.mux }

// instrument wraps a handler with latency/error accounting (the trace ID
// rides along as the latency exemplar), a request span — joining the
// caller's trace when an X-Sickle-Trace header is present, minting one
// otherwise — and a trace-ID-stamped request log.
func (t *Tier) instrument(route string, h HandlerFunc) http.HandlerFunc {
	spanName := t.cfg.SpanPrefix + route
	logger := t.cfg.Logger
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tc, ok := api.ParseTraceHeader(r.Header.Get(api.TraceHeader)); ok {
			ctx = api.WithTrace(ctx, tc)
		}
		ctx, span := t.tracer.StartSpan(ctx, spanName)
		span.SetAttr("method", r.Method)
		t0 := time.Now()
		t.series.Inflight.Add(1)
		err := h(w, r.WithContext(ctx))
		t.series.Inflight.Add(-1)
		d := time.Since(t0)
		t.series.Requests.With(route).Inc()
		t.series.Seconds.With(route).ObserveEx(d.Seconds(), span.TraceID())
		if err != nil {
			t.series.Errors.With(route).Inc()
			span.SetAttr("error", string(api.AsError(err).Code))
		}
		span.End()
		if logger.Enabled(ctx, slog.LevelDebug) || err != nil {
			kv := []any{"route", route, "method", r.Method,
				"trace", span.TraceID(), "seconds", d.Seconds()}
			if err != nil {
				logger.Warn("request failed", append(kv, "error", err.Error())...)
			} else {
				logger.Debug("request", kv...)
			}
		}
	}
}

// ServeDebug starts the opt-in -debug-addr sidecar; "" leaves it off.
func (t *Tier) ServeDebug(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, t.debugMux()); err != nil {
			t.cfg.Logger.Error("debug listener", "err", err)
		}
	}()
	t.cfg.Logger.Info("debug endpoints up", "addr", addr)
}

// debugMux is the sidecar's surface: pprof plus the debug routes over the
// tier's own recorder (on the router too: local history, not the fleet's).
func (t *Tier) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.mountDebug(mux, nil)
	return mux
}

// ListenAndServe blocks serving on Config.Addr until Shutdown.
func (t *Tier) ListenAndServe() error {
	l, err := net.Listen("tcp", t.cfg.Addr)
	if err != nil {
		return err
	}
	return t.Serve(l)
}

// Serve blocks serving on l until Shutdown or Close.
func (t *Tier) Serve(l net.Listener) error {
	err := t.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops accepting, waits for in-flight handlers (each bounded by
// its own request context), then halts the history sampler.
func (t *Tier) Shutdown(ctx context.Context) error {
	err := t.httpSrv.Shutdown(ctx)
	t.history.Stop()
	return err
}

// Close drops the listener and every active connection without draining —
// a crashed tier, as far as its clients can tell.
func (t *Tier) Close() {
	t.httpSrv.Close()
	t.history.Stop()
}

// ---- envelope helpers ----

// bodies recycles the buffers request bodies are read into and binary
// answers built in; one stays out of the pool once it has grown past
// maxPooledBody.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// DecodeBody reads a request body by way of a pooled buffer and decodes v
// from it as its Content-Type says (api.Unmarshal); v keeps none of it.
func DecodeBody(r *http.Request, v any) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	if err := ReadBody(r, buf); err != nil {
		return err
	}
	return api.Unmarshal(r.Header.Get("Content-Type"), buf.Bytes(), v)
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodies.Put(buf)
	}
}

// MaxBody caps a request body on both tiers (the ledger's Infer body is
// ≈ 130 KB): a larger one is refused, not buffered.
const MaxBody = 64 << 20

// ReadBody reads a request body whole into buf, which the caller owns; a
// body over MaxBody is a typed invalid_argument.
func ReadBody(r *http.Request, buf *bytes.Buffer) error {
	tooLarge := func() error {
		return api.Errorf(api.CodeInvalidArgument, "request body exceeds the %d MiB limit", MaxBody>>20)
	}
	if r.ContentLength > MaxBody {
		return tooLarge()
	}
	if r.ContentLength > 0 {
		// MinRead more, or the read that finds EOF regrows the buffer.
		buf.Grow(int(min(r.ContentLength, maxPooledBody)) + bytes.MinRead)
	}
	// buf.ReadFrom, counting: a chunked body declares no length to refuse.
	var err error
	for err == nil {
		buf.Grow(bytes.MinRead)
		b := buf.AvailableBuffer()
		var n int
		n, err = r.Body.Read(b[:cap(b)])
		buf.Write(b[:n])
		if buf.Len() > MaxBody {
			return tooLarge()
		}
	}
	if err != io.EOF {
		return api.Errorf(api.CodeInvalidArgument, "reading request body: %v", err)
	}
	return nil
}

// Call adapts a typed request/response function into a handler: decode Req
// from the body, run do under the request context, and answer in the
// request's content type — the tensor frame when the request came in it
// and Resp has one (encoding.BinaryAppender), else JSON.
func Call[Req, Resp any](do func(context.Context, *Req) (Resp, error)) HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		var req Req
		if err := DecodeBody(r, &req); err != nil {
			return WriteError(w, err)
		}
		resp, err := do(r.Context(), &req)
		a, ok := any(resp).(encoding.BinaryAppender)
		if !ok || err != nil || r.Header.Get("Content-Type") != api.ContentTypeTensors {
			return Reply(w, resp, err)
		}
		buf := bodies.Get().(*bytes.Buffer)
		defer putBody(buf)
		b, err := a.AppendBinary(buf.AvailableBuffer())
		if err != nil {
			return WriteError(w, err)
		}
		buf.Write(b) // a copy onto itself, unless b outgrew buf: then buf keeps it for the pool
		w.Header().Set("Content-Type", api.ContentTypeTensors)
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		_, err = w.Write(b)
		return err
	}
}

// Reply ends a handler the usual way: the typed envelope when err is set,
// else v under 200.
func Reply(w http.ResponseWriter, v any, err error) error {
	if err != nil {
		return WriteError(w, err)
	}
	return WriteJSON(w, http.StatusOK, v)
}

// WriteJSON writes v as the response body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// WriteError writes the typed envelope {"error":{"code":...,"message":...}}
// with the code's HTTP status, adding Retry-After for backpressure
// responses so well-behaved clients pace themselves. It returns the typed
// error so a handler can `return WriteError(w, err)`.
func WriteError(w http.ResponseWriter, err error) error {
	ae := api.AsError(err)
	if ae.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
	}
	WriteJSON(w, ae.Code.HTTPStatus(), api.ErrorEnvelope{Error: ae})
	return ae
}
