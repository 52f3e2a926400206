package tier

import (
	"context"
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
