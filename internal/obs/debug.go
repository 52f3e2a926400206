package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"
)

// TracePayload is the /debug/traces/{id} response body: one trace's spans,
// ordered by start time. The shard router returns the same shape with
// downstream tiers' spans merged in.
type TracePayload struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// TraceListPayload is the /debug/traces listing body.
type TraceListPayload struct {
	Tier   string      `json:"tier"`
	Traces []TraceInfo `json:"traces"`
}

// HandleTraceList serves the trace listing (GET /debug/traces).
func (t *Tracer) HandleTraceList(w http.ResponseWriter, _ *http.Request) {
	tier := ""
	if t != nil {
		tier = t.tier
	}
	writeDebugJSON(w, TraceListPayload{Tier: tier, Traces: t.Traces(100)})
}

// HandleTraceByID serves one trace's spans (GET /debug/traces/{id}).
func (t *Tracer) HandleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := t.Spans(id)
	if len(spans) == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no trace " + id})
		return
	}
	writeDebugJSON(w, TracePayload{TraceID: id, Spans: spans})
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Mount registers the /debug/traces endpoints on a mux (both serve and
// shard expose them on their main listener).
func (t *Tracer) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", t.HandleTraceList)
	mux.HandleFunc("GET /debug/traces/{id}", t.HandleTraceByID)
}

// HandleMetrics serves the text exposition (GET /metrics).
func (r *Registry) HandleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(r.Render()))
}

// Mounter is anything that can register its debug endpoints on a mux —
// the tsdb history store, the event journal, and the SLO engine all
// implement it, so binaries can hang extra surfaces off the -debug-addr
// sidecar without obs importing its own subpackages.
type Mounter interface {
	Mount(mux *http.ServeMux)
}

// NewDebugMux builds the opt-in -debug-addr surface: net/http/pprof under
// /debug/pprof/, the registry's /metrics, the tracer's /debug/traces
// endpoints, and any extra Mounters (history, events, SLO). reg and t may
// be nil (their endpoints are then omitted), as may extra entries.
func NewDebugMux(reg *Registry, t *Tracer, extra ...Mounter) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.HandleFunc("GET /metrics", reg.HandleMetrics)
	}
	if t != nil {
		t.Mount(mux)
	}
	for _, m := range extra {
		if m != nil {
			m.Mount(mux)
		}
	}
	return mux
}

// ServeDebug listens on addr with NewDebugMux in a background goroutine and
// returns the server so callers can Close it. Listen failures surface
// through onErr (may be nil); http.ErrServerClosed is filtered out.
func ServeDebug(addr string, reg *Registry, t *Tracer, onErr func(error), extra ...Mounter) *http.Server {
	srv := &http.Server{Addr: addr, Handler: NewDebugMux(reg, t, extra...)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && onErr != nil {
			onErr(err)
		}
	}()
	return srv
}

// ParseSince interprets the since query value of the /debug/history and
// /debug/events endpoints: "" means no cutoff, a Go duration ("5m") means
// that long before now, anything else must be RFC3339.
func ParseSince(s string, now time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return now.Add(-d), nil
	}
	return time.Parse(time.RFC3339, s)
}
