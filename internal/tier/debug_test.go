package tier

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSidecarRoutes: the mux ServeDebug serves answers pprof, /metrics and
// the five recorder views, all over the tier's own recorder.
func TestSidecarRoutes(t *testing.T) {
	tr := New(Config{Name: "serve"})
	_, sp := tr.Tracer().StartSpan(context.Background(), "op")
	sp.End()
	mux := tr.debugMux()
	for _, path := range []string{
		"/debug/pprof/", "/debug/pprof/cmdline", "/metrics",
		"/debug/traces", "/debug/traces/" + sp.TraceID(),
		"/debug/history", "/debug/events", "/debug/slo",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("sidecar GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestZeroConfigLoggerDiscards: a Config without a Logger still yields a
// usable one, and it writes nothing at any level.
func TestZeroConfigLoggerDiscards(t *testing.T) {
	lg := New(Config{}).Logger()
	if lg == nil {
		t.Fatal("Logger() is nil")
	}
	if lg.Handler() != slog.DiscardHandler {
		t.Errorf("handler = %T, want slog.DiscardHandler", lg.Handler())
	}
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if lg.Enabled(context.Background(), lvl) {
			t.Errorf("level %v enabled on the zero Config's logger", lvl)
		}
		lg.Log(context.Background(), lvl, "x", "k", 1)
	}
}
