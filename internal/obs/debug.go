package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// HandleMetrics serves the text exposition (GET /metrics).
func (r *Registry) HandleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(r.Render()))
}

// ParseSince interprets the since query value of the /debug/history and
// /debug/events endpoints: "" means no cutoff, a Go duration ("5m") means
// that long before now, anything else must be RFC3339. A negative duration
// is an error: its cutoff would lie in the future and match nothing.
func ParseSince(s string, now time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d < 0 {
			return time.Time{}, fmt.Errorf("negative duration %q", s)
		}
		return now.Add(-d), nil
	}
	return time.Parse(time.RFC3339, s)
}
