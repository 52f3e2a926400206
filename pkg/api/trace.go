package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// TraceHeader is the wire contract for end-to-end tracing: every tier
// (pkg/client, the shard router, serve handlers) propagates it so one
// request produces one trace across tier boundaries. The value is
// "<trace-id>" or "<trace-id>:<parent-span-id>".
const TraceHeader = "X-Sickle-Trace"

// TraceContext is a request's trace identity as it crosses a boundary:
// which trace it belongs to and which span is the parent of whatever the
// next tier records.
type TraceContext struct {
	TraceID string
	SpanID  string
}

// HeaderValue renders the X-Sickle-Trace value for this context.
func (tc TraceContext) HeaderValue() string {
	if tc.SpanID == "" {
		return tc.TraceID
	}
	return tc.TraceID + ":" + tc.SpanID
}

// ParseTraceHeader decodes an X-Sickle-Trace value; ok is false for empty
// or malformed values (IDs must be non-empty hex-ish tokens).
func ParseTraceHeader(v string) (TraceContext, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return TraceContext{}, false
	}
	id, span, _ := strings.Cut(v, ":")
	if !validID(id) || (span != "" && !validID(span)) {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: id, SpanID: span}, true
}

func validID(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == '-') {
			return false
		}
	}
	return true
}

// NewTraceID mints a 16-hex-char random trace ID.
func NewTraceID() string { return randomHex(8) }

// NewSpanID mints an 8-hex-char random span ID.
func NewSpanID() string { return randomHex(4) }

// randomHex mints 2n hex characters (n ≤ 16, an idempotency key's size)
// on the stack: the returned string is the only allocation.
func randomHex(n int) string {
	var raw [16]byte
	var text [32]byte
	if _, err := rand.Read(raw[:n]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// fixed ID rather than panicking in an instrumentation path.
		return strings.Repeat("0", 2*n)
	}
	return string(text[:hex.Encode(text[:], raw[:n])])
}

type traceCtxKey struct{}

// WithTrace returns a context carrying the trace identity.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the trace identity from ctx.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.TraceID != ""
}
