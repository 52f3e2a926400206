package olog

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// parseLevel runs -log-level v through Flags the way a binary does.
func parseLevel(v string) error {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Flags(fs)
	return fs.Parse([]string{"-log-level", v})
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError, "": slog.LevelInfo,
	} {
		if got, ok := levels[strings.ToLower(s)]; !ok || got != want {
			t.Errorf("level %q = %v, %v", s, got, ok)
		}
		if err := parseLevel(s); err != nil {
			t.Errorf("-log-level %q: %v", s, err)
		}
	}
	// A typo is a parse error, not a silent info; so are slog's offsets.
	for _, s := range []string{"loud", "bogus", "info+2"} {
		if err := parseLevel(s); err == nil {
			t.Errorf("-log-level %q parsed", s)
		}
	}
}

func TestTextOutputAndFiltering(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelInfo, false)
	l.Debug("hidden")
	l.Info("served", "route", "/v1/infer", "code", 200)
	l.Warn("odd value", "msg with space", "a b")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug leaked through info level")
	}
	if !strings.Contains(out, "level=INFO msg=served route=/v1/infer code=200") {
		t.Errorf("text format wrong: %q", out)
	}
	if !strings.Contains(out, `"a b"`) {
		t.Errorf("value with space not quoted: %q", out)
	}
}

func TestJSONOutput(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelDebug, true)
	l.Info("request", "tier", "serve", "route", "/healthz", "trace", "abc")
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	for k, want := range map[string]string{
		"level": "INFO", "msg": "request", "tier": "serve",
		"route": "/healthz", "trace": "abc",
	} {
		if rec[k] != want {
			t.Errorf("%s = %v, want %s", k, rec[k], want)
		}
	}
	if rec["time"] == nil {
		t.Error("missing time")
	}
}

func TestConcurrentUse(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelDebug, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("tick", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Count(buf.String(), "\n")
	if lines != 800 {
		t.Errorf("got %d lines, want 800", lines)
	}
}

// logAt hands one record stamped at to l's handler, the way l would at
// that time, so token refills are deterministic.
func logAt(t *testing.T, l *slog.Logger, at time.Time, lvl slog.Level, msg string, args ...any) {
	t.Helper()
	r := slog.NewRecord(at, lvl, msg, 0)
	r.Add(args...)
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}

var t0 = time.Unix(1_700_000_000, 0)

func TestWarnFloodIsRateLimited(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelInfo, false)

	// Burst 5: the first five identical warns pass, the rest drop.
	for i := 0; i < 20; i++ {
		logAt(t, l, t0, slog.LevelWarn, "replica down", "replica", "r1")
	}
	if got := strings.Count(buf.String(), "replica down"); got != 5 {
		t.Fatalf("burst let %d lines through, want 5", got)
	}
	// One second refills one token; the emitted line carries the
	// suppressed count of the 15 dropped repeats.
	logAt(t, l, t0.Add(time.Second), slog.LevelWarn, "replica down", "replica", "r1")
	out := buf.String()
	if got := strings.Count(out, "replica down"); got != 6 {
		t.Fatalf("after refill got %d lines, want 6", got)
	}
	if !strings.Contains(out, "suppressed=15") {
		t.Errorf("refill line missing suppressed=15 tail: %q", out)
	}
}

func TestRateLimitIsPerMessageAndLevel(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelInfo, false)

	for i := 0; i < 10; i++ {
		logAt(t, l, t0, slog.LevelWarn, "a")
	}
	// A different message — and the same message at a different level —
	// have their own buckets.
	logAt(t, l, t0, slog.LevelWarn, "b")
	logAt(t, l, t0, slog.LevelError, "a")
	out := buf.String()
	if got := strings.Count(out, "level=WARN msg=a"); got != 5 {
		t.Errorf("warn a lines = %d, want 5", got)
	}
	if !strings.Contains(out, "level=WARN msg=b") || !strings.Contains(out, "level=ERROR msg=a") {
		t.Errorf("distinct sites were limited together: %q", out)
	}
}

func TestWithChildSharesBuckets(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelInfo, false)
	for i := 0; i < 5; i++ {
		logAt(t, l, t0, slog.LevelWarn, "replica down")
	}
	// A child built by With (or WithGroup) must not start a fresh limiter.
	logAt(t, l.With("k", 1), t0, slog.LevelWarn, "replica down")
	logAt(t, l.WithGroup("g"), t0, slog.LevelWarn, "replica down")
	if got := strings.Count(buf.String(), "replica down"); got != 5 {
		t.Errorf("parent and children wrote %d lines, want 5 (one shared bucket)", got)
	}
}

func TestInfoIsNeverRateLimited(t *testing.T) {
	var buf syncBuf
	l := newLogger(&buf, slog.LevelDebug, false)
	for i := 0; i < 50; i++ {
		logAt(t, l, t0, slog.LevelInfo, "tick")
	}
	if got := strings.Count(buf.String(), "tick"); got != 50 {
		t.Errorf("info lines = %d, want all 50 (no limiting below warn)", got)
	}
}
