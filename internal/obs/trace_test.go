package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/api"
)

func TestStartSpanMintsAndParents(t *testing.T) {
	tr := NewTracer("test", 16)
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root.TraceID() == "" || root.SpanID() == "" {
		t.Fatal("root span missing IDs")
	}
	_, child := tr.StartSpan(ctx, "child")
	child.SetAttr("k", "v")
	child.End()
	root.End()
	root.End() // idempotent

	spans := tr.Spans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].ParentID != root.SpanID() {
		t.Errorf("child parent = %q, want %q", byName["child"].ParentID, root.SpanID())
	}
	if byName["root"].ParentID != "" {
		t.Errorf("root has parent %q", byName["root"].ParentID)
	}
	if byName["child"].Attrs["k"] != "v" {
		t.Errorf("child attrs = %v", byName["child"].Attrs)
	}
	if byName["root"].Tier != "test" {
		t.Errorf("tier = %q", byName["root"].Tier)
	}
}

// TestSpanRoundTrip: the ring keeps a span in its compact form, and Spans
// gives back what was recorded — start to the nanosecond, every attribute
// (a repeated key keeping its last value, values long enough to outgrow
// the active span's buffer), no attribute map where there was none.
func TestSpanRoundTrip(t *testing.T) {
	tr := NewTracer("test", 8)
	long := strings.Repeat("x", 300)
	start := time.Date(2025, 3, 4, 5, 6, 7, 890123456, time.UTC)
	tr.Record(Span{TraceID: "t1", SpanID: "s1", ParentID: "p1", Name: "recorded", Start: start, Seconds: 0.25,
		Attrs: map[string]string{"a": "1", "": "empty key", "long": long}})
	tr.Record(Span{TraceID: "t1", SpanID: "s2", Name: "bare", Start: start.Add(time.Second)})
	_, sp := tr.StartSpan(api.WithTrace(context.Background(), api.TraceContext{TraceID: "t1"}), "active")
	sp.SetAttr("k", "first")
	sp.SetAttr("long", long)
	sp.SetAttr("k", "last")
	sp.End()

	got := tr.Spans("t1")
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	rec, bare, active := got[0], got[1], got[2]
	if !rec.Start.Equal(start) || rec.Seconds != 0.25 || rec.ParentID != "p1" || rec.Tier != "test" ||
		len(rec.Attrs) != 3 || rec.Attrs["a"] != "1" || rec.Attrs[""] != "empty key" || rec.Attrs["long"] != long {
		t.Errorf("recorded span came back as %+v", rec)
	}
	if bare.Attrs != nil {
		t.Errorf("a span without attributes came back with %v", bare.Attrs)
	}
	if len(active.Attrs) != 2 || active.Attrs["k"] != "last" || active.Attrs["long"] != long {
		t.Errorf("active span's attributes came back as %v", active.Attrs)
	}
}

func TestStartSpanInheritsUpstreamTrace(t *testing.T) {
	tr := NewTracer("test", 16)
	up := api.TraceContext{TraceID: "abc123", SpanID: "def456"}
	ctx := api.WithTrace(context.Background(), up)
	childCtx, sp := tr.StartSpan(ctx, "op")
	if sp.TraceID() != "abc123" {
		t.Errorf("trace = %q, want upstream abc123", sp.TraceID())
	}
	sp.End()
	if got := tr.Spans("abc123"); len(got) != 1 || got[0].ParentID != "def456" {
		t.Errorf("span not parented to upstream: %+v", got)
	}
	tc, ok := api.TraceFrom(childCtx)
	if !ok || tc.SpanID != sp.SpanID() {
		t.Errorf("child ctx carries %+v, want span %s", tc, sp.SpanID())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer("test", 4)
	for i := 0; i < 6; i++ {
		tr.Record(Span{TraceID: fmt.Sprintf("t%d", i), Name: "s", Start: time.Now()})
	}
	if got := tr.Spans("t0"); len(got) != 0 {
		t.Errorf("oldest span survived a full ring")
	}
	if got := tr.Spans("t5"); len(got) != 1 {
		t.Errorf("newest span missing")
	}
	if infos := tr.Traces(0); len(infos) != 4 {
		t.Errorf("ring holds %d traces, want 4", len(infos))
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	sp.SetAttr("a", "b")
	sp.End()
	if ctx == nil {
		t.Fatal("nil tracer must return the ctx")
	}
	tr.Record(Span{TraceID: "x"})
	if tr.Spans("x") != nil || tr.Traces(5) != nil {
		t.Fatal("nil tracer must return nothing")
	}
}

func TestTraceHTTPHandlers(t *testing.T) {
	tr := NewTracer("test", 16)
	_, sp := tr.StartSpan(context.Background(), "op")
	sp.End()
	byID := func(id string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/debug/traces/"+id, nil)
		req.SetPathValue("id", id)
		rec := httptest.NewRecorder()
		tr.HandleTraceByID(rec, req)
		return rec
	}

	rec := httptest.NewRecorder()
	tr.HandleTraceList(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list TraceListPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != sp.TraceID() {
		t.Fatalf("list = %+v", list)
	}

	rec = byID(sp.TraceID())
	var payload TracePayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].Name != "op" {
		t.Fatalf("payload = %+v", payload)
	}

	if rec = byID("nosuch"); rec.Code != 404 {
		t.Errorf("missing trace -> %d, want 404", rec.Code)
	}
}

// TestTracerConcurrency exercises the ring under parallel writers and
// readers; with -race this is the tracer's thread-safety proof.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer("test", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "op")
				_, child := tr.StartSpan(ctx, "child")
				child.End()
				sp.End()
				if i%20 == 0 {
					tr.Traces(10)
					tr.Spans(sp.TraceID())
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Traces(0)); got == 0 {
		t.Fatal("no traces recorded")
	}
}

// spansRef and tracesRef are the brute-force reads the tracer's in-place
// walks must agree with: a filter over a copy of the whole ring.
func spansRef(tr *Tracer, traceID string) []Span {
	var out []Span
	for _, s := range tr.ring.Snapshot() {
		if s.TraceID == traceID {
			out = append(out, Span{TraceID: s.TraceID, SpanID: s.SpanID, ParentID: s.ParentID, Name: s.Name,
				Tier: tr.tier, Start: time.Unix(0, s.start), Seconds: s.Seconds, Attrs: decodeAttrs(s.attrs)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

func tracesRef(tr *Tracer, limit int) []TraceInfo {
	var order []*TraceInfo
	for _, s := range tr.ring.Snapshot() {
		var info *TraceInfo
		for _, o := range order {
			if o.TraceID == s.TraceID {
				info = o
			}
		}
		start := time.Unix(0, s.start)
		if info == nil {
			info = &TraceInfo{TraceID: s.TraceID, Start: start, Root: s.Name}
			order = append(order, info)
		}
		info.Spans++
		if start.Before(info.Start) {
			info.Start = start
		}
		if s.ParentID == "" {
			info.Root = s.Name
		}
		end := start.Add(time.Duration(s.Seconds * float64(time.Second)))
		info.Seconds = max(info.Seconds, end.Sub(info.Start).Seconds())
	}
	out := []TraceInfo{}
	for i := len(order) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		out = append(out, *order[i])
	}
	return out
}

// TestTracerReadsMatchBruteForce: over random sequences of spans that fill
// and overwrite small rings, Spans and Traces equal a filter of the ring's
// snapshot after every record.
func TestTracerReadsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1700000000, 0)
	for trial := 0; trial < 50; trial++ {
		tr := NewTracer("test", 1+rng.Intn(12))
		ids := 1 + rng.Intn(5)
		for i := 0; i < 40; i++ {
			s := Span{TraceID: fmt.Sprintf("t%d", rng.Intn(ids)), SpanID: fmt.Sprintf("s%d", i),
				Name: fmt.Sprintf("op%d", rng.Intn(3)), Start: base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond),
				Seconds: rng.Float64()}
			if rng.Intn(2) == 0 {
				s.ParentID = fmt.Sprintf("s%d", rng.Intn(i+1))
			}
			if rng.Intn(3) == 0 {
				s.Attrs = map[string]string{"k": fmt.Sprint(i)}
			}
			tr.Record(s)
			for id := 0; id <= ids; id++ {
				traceID := fmt.Sprintf("t%d", id)
				if got, want := tr.Spans(traceID), spansRef(tr, traceID); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d: Spans(%s) = %+v, want %+v", trial, i, traceID, got, want)
				}
			}
			limit := rng.Intn(ids + 2)
			if got, want := tr.Traces(limit), tracesRef(tr, limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: Traces(%d) = %+v, want %+v", trial, i, limit, got, want)
			}
		}
	}
}

// TestSpansAllocatesPerMatch: reading one trace from a full 65,536-span
// ring costs memory in proportion to the trace's spans, not the ring's.
func TestSpansAllocatesPerMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const capacity = 1 << 16
	tr := NewTracer("test", capacity)
	for i := 0; i < capacity+100; i++ {
		tr.Record(Span{TraceID: fmt.Sprintf("t%d", i%(capacity/4)), SpanID: "s", Name: "op", Start: time.Now()})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reads = 10
	for i := 0; i < reads; i++ {
		if got := tr.Spans("t7"); len(got) != 4 {
			t.Fatalf("Spans(t7) holds %d spans, want 4", len(got))
		}
	}
	runtime.ReadMemStats(&after)
	// 4 matches: a few small slices; a copy of the ring would be ~6 MiB.
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 4<<10 {
		t.Fatalf("Spans allocates %d bytes a call on a full ring, want O(matching spans)", per)
	}
}
