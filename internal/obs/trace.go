package obs

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"repro/pkg/api"
)

// Span is one recorded operation inside a trace: a name, its tier of
// origin, wall-clock start and duration, a parent link, and free-form
// attributes. The JSON shape is the /debug/traces wire format, shared
// across tiers so the shard router can merge downstream spans verbatim.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Tier     string            `json:"tier"`
	Start    time.Time         `json:"start"`
	Seconds  float64           `json:"seconds"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceInfo summarizes one trace present in the ring (the /debug/traces
// listing entry).
type TraceInfo struct {
	TraceID string    `json:"trace_id"`
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"` // span of wall-clock covered by the trace's spans
	Root    string    `json:"root"`    // name of the earliest parentless span (or earliest span)
}

// Tracer records spans into a bounded in-memory ring; when full, the
// oldest spans are overwritten. A nil *Tracer is a valid no-op recorder,
// so instrumentation never has to branch. All methods are safe for
// concurrent use.
type Tracer struct {
	tier string

	mu   sync.Mutex
	ring *Ring[stored]
}

// stored is a span as the ring keeps it, in a ring that may hold 10⁵ of
// them: the tier is the tracer's, the start is in Unix nanoseconds and the
// attributes are one string of length-prefixed keys and values (appendAttr)
// — 96 bytes a slot and about 16 a span, where the Span itself and its map
// took 120 and 300. Spans rebuilds the Span.
type stored struct {
	TraceID, SpanID, ParentID, Name string
	start                           int64
	Seconds                         float64
	attrs                           string
}

// appendAttr appends one attribute to an encoded attribute list.
func appendAttr(b []byte, k, v string) []byte {
	b = append(binary.AppendUvarint(b, uint64(len(k))), k...)
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// decodeAttrs rebuilds the map of an encoded attribute list, a later key
// overriding an earlier one.
func decodeAttrs(s string) map[string]string {
	if s == "" {
		return nil
	}
	m := map[string]string{}
	next := func() string {
		n, w := binary.Uvarint([]byte(s[:min(len(s), binary.MaxVarintLen64)]))
		v := s[w : w+int(n)]
		s = s[w+int(n):]
		return v
	}
	for s != "" {
		k := next()
		m[k] = next()
	}
	return m
}

// DefaultTraceCapacity bounds the span ring when the caller does not.
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer whose spans carry the given tier label
// ("serve", "shard", "stream", ...). capacity <= 0 selects
// DefaultTraceCapacity.
func NewTracer(tier string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{tier: tier, ring: NewRing[stored](capacity)}
}

// Record stores one finished span (stamping the tracer's tier).
func (t *Tracer) Record(s Span) {
	var buf [64]byte
	attrs := buf[:0]
	for k, v := range s.Attrs {
		attrs = appendAttr(attrs, k, v)
	}
	t.record(s, attrs)
}

func (t *Tracer) record(s Span, attrs []byte) {
	if t == nil || s.TraceID == "" {
		return
	}
	t.mu.Lock()
	t.ring.Push(stored{s.TraceID, s.SpanID, s.ParentID, s.Name, s.Start.UnixNano(), s.Seconds, string(attrs)})
	t.mu.Unlock()
}

// Dropped reports how many spans ring eviction has overwritten (0 on nil).
// Registries expose it as sickle_obs_spans_dropped_total so a span ring
// wrapping under load is visible instead of silent.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// RegisterDropped mounts the span-eviction counter on reg. Nil-safe.
func (t *Tracer) RegisterDropped(reg *Registry) {
	reg.CounterFunc("sickle_obs_spans_dropped_total",
		"Spans overwritten by trace-ring eviction before they could be read.",
		func() float64 { return float64(t.Dropped()) })
}

// ActiveSpan is an in-flight span started by StartSpan; End records it.
// Nil handles (from a nil Tracer) no-op.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	attrs []byte // appendAttr's encoding, in buf while it fits
	buf   [32]byte
	mu    sync.Mutex
	done  bool
}

// StartSpan opens a span under the trace carried by ctx, minting a fresh
// trace ID when ctx has none (so a tier entered without an upstream header
// still produces a complete local trace). The returned context carries the
// new span as the parent for anything downstream — including the
// X-Sickle-Trace header pkg/client attaches.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	tc, ok := api.TraceFrom(ctx)
	if !ok {
		tc = api.TraceContext{TraceID: api.NewTraceID()}
	}
	sp := Span{
		TraceID:  tc.TraceID,
		SpanID:   api.NewSpanID(),
		ParentID: tc.SpanID,
		Name:     name,
		Start:    time.Now(),
	}
	ctx = api.WithTrace(ctx, api.TraceContext{TraceID: sp.TraceID, SpanID: sp.SpanID})
	a := &ActiveSpan{t: t, span: sp}
	a.attrs = a.buf[:0]
	return ctx, a
}

// SetAttr attaches one attribute to the span.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.attrs = appendAttr(a.attrs, k, v)
	a.mu.Unlock()
}

// TraceID returns the span's trace ID ("" on nil).
func (a *ActiveSpan) TraceID() string {
	if a == nil {
		return ""
	}
	return a.span.TraceID
}

// SpanID returns the span's own ID ("" on nil).
func (a *ActiveSpan) SpanID() string {
	if a == nil {
		return ""
	}
	return a.span.SpanID
}

// End stamps the duration and records the span. Idempotent.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.span.Seconds = time.Since(a.span.Start).Seconds()
	sp, attrs := a.span, a.attrs
	a.mu.Unlock()
	a.t.record(sp, attrs)
}

// Spans returns every recorded span of one trace, ordered by start time.
// It walks the ring in place and copies only the trace's own spans.
func (t *Tracer) Spans(traceID string) []Span {
	if t == nil {
		return nil
	}
	var kept []stored
	t.mu.Lock()
	t.ring.each(func(s *stored) {
		if s.TraceID == traceID {
			kept = append(kept, *s)
		}
	})
	t.mu.Unlock()
	var out []Span
	for _, s := range kept {
		out = append(out, Span{TraceID: s.TraceID, SpanID: s.SpanID, ParentID: s.ParentID, Name: s.Name,
			Tier: t.tier, Start: time.Unix(0, s.start), Seconds: s.Seconds, Attrs: decodeAttrs(s.attrs)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

// Traces lists the newest `limit` distinct traces in the ring (all when
// limit <= 0), most recent first.
func (t *Tracer) Traces(limit int) []TraceInfo {
	if t == nil {
		return nil
	}
	byID := map[string]*TraceInfo{}
	var order []string
	t.mu.Lock()
	t.ring.each(func(s *stored) {
		start := time.Unix(0, s.start)
		info, ok := byID[s.TraceID]
		if !ok {
			info = &TraceInfo{TraceID: s.TraceID, Start: start, Root: s.Name}
			byID[s.TraceID] = info
			order = append(order, s.TraceID)
		}
		info.Spans++
		if start.Before(info.Start) {
			info.Start = start
		}
		if s.ParentID == "" {
			info.Root = s.Name
		}
		if end := start.Add(time.Duration(s.Seconds * float64(time.Second))); end.Sub(info.Start).Seconds() > info.Seconds {
			info.Seconds = end.Sub(info.Start).Seconds()
		}
	})
	t.mu.Unlock()
	out := make([]TraceInfo, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- { // newest first
		out = append(out, *byID[order[i]])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
