package api

import (
	"context"
	"strings"
	"testing"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{
		{TraceID: "abc123"},
		{TraceID: "abc123", SpanID: "def456"},
	} {
		got, ok := ParseTraceHeader(tc.HeaderValue())
		if !ok || got != tc {
			t.Errorf("round trip %+v -> %+v, ok=%v", tc, got, ok)
		}
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"", "   ", "has space:abc", "abc:bad!span", "ok:" + string(make([]byte, 80)),
		"<script>", "abc:def:extra!",
	} {
		if tc, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted -> %+v", v, tc)
		}
	}
}

// FuzzTraceHeader: ParseTraceHeader never panics, and a value it accepts
// renders, through HeaderValue, to one that parses back to the same
// TraceContext. Seed corpus in testdata/fuzz/FuzzTraceHeader.
func FuzzTraceHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceHeader(v)
		if !ok {
			return
		}
		if again, ok := ParseTraceHeader(tc.HeaderValue()); !ok || again != tc {
			t.Fatalf("%q parsed as %+v, whose header %q parses as %+v (ok %v)", v, tc, tc.HeaderValue(), again, ok)
		}
	})
}

func TestNewIDs(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	if len(id) != 16 || len(span) != 8 {
		t.Fatalf("id lengths: trace %d span %d", len(id), len(span))
	}
	if !validID(id) || !validID(span) {
		t.Fatal("minted IDs fail own validation")
	}
	if NewTraceID() == id {
		t.Error("trace IDs collide")
	}
}

func TestContextPropagation(t *testing.T) {
	if _, ok := TraceFrom(context.Background()); ok {
		t.Fatal("empty ctx claims a trace")
	}
	want := TraceContext{TraceID: "abc", SpanID: "def"}
	ctx := WithTrace(context.Background(), want)
	got, ok := TraceFrom(ctx)
	if !ok || got != want {
		t.Fatalf("TraceFrom = %+v, %v", got, ok)
	}
	if _, ok := TraceFrom(WithTrace(context.Background(), TraceContext{})); ok {
		t.Error("empty trace ID should report not-ok")
	}
}

// TestNewIDAllocs: an ID costs the string it returns and nothing else.
func TestNewIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var sink string
	for name, mint := range map[string]func() string{
		"trace": NewTraceID, "span": NewSpanID, "idempotency key": NewIdempotencyKey,
	} {
		if allocs := testing.AllocsPerRun(100, func() { sink = mint() }); allocs > 1 {
			t.Errorf("%s ID: %.0f allocations, want 1", name, allocs)
		}
	}
	if strings.Trim(sink, "0123456789abcdef") != "" {
		t.Errorf("ID %q is not lower-case hex", sink)
	}
}
