package olog

import (
	"encoding/json"
	"flag"
	"io"
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

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError, "": LevelInfo,
	} {
		if got, err := parseLevel(s); err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel accepted garbage")
	}
	// Through the flags a typo is a parse error, not a silent info.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Flags(fs)
	if err := fs.Parse([]string{"-log-level", "bogus"}); err == nil {
		t.Error("-log-level bogus parsed")
	}
}

func TestTextOutputAndFiltering(t *testing.T) {
	var buf syncBuf
	l := New(&buf, LevelInfo, false)
	l.Debug("hidden")
	l.Info("served", "route", "/v1/infer", "code", 200)
	l.Warn("odd value", "msg with space", "a b")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug leaked through info level")
	}
	if !strings.Contains(out, "info served route=/v1/infer code=200") {
		t.Errorf("text format wrong: %q", out)
	}
	if !strings.Contains(out, `"a b"`) {
		t.Errorf("value with space not quoted: %q", out)
	}
}

func TestJSONOutput(t *testing.T) {
	var buf syncBuf
	l := New(&buf, LevelDebug, true)
	l.Info("request", "tier", "serve", "route", "/healthz", "trace", "abc")
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	for k, want := range map[string]string{
		"level": "info", "msg": "request", "tier": "serve",
		"route": "/healthz", "trace": "abc",
	} {
		if rec[k] != want {
			t.Errorf("%s = %v, want %s", k, rec[k], want)
		}
	}
	if rec["ts"] == nil {
		t.Error("missing ts")
	}
}

func TestNilLoggerNoops(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.Enabled(LevelError) {
		t.Error("nil logger should report disabled")
	}
}

func TestConcurrentUse(t *testing.T) {
	var buf syncBuf
	l := New(&buf, LevelDebug, false)
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

// scripted clock for the rate-limit tests: each test advances it by hand
// so token refills are deterministic.
func withClock(l *Logger) func(d time.Duration) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	l.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	return func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
}

func TestWarnFloodIsRateLimited(t *testing.T) {
	var buf syncBuf
	l := New(&buf, LevelInfo, false)
	advance := withClock(l)

	// Burst 5: the first five identical warns pass, the rest drop.
	for i := 0; i < 20; i++ {
		l.Warn("replica down", "replica", "r1")
	}
	if got := strings.Count(buf.String(), "replica down"); got != 5 {
		t.Fatalf("burst let %d lines through, want 5", got)
	}
	// One second refills one token; the emitted line carries the
	// suppressed count of the 15 dropped repeats.
	advance(time.Second)
	l.Warn("replica down", "replica", "r1")
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
	l := New(&buf, LevelInfo, false)
	withClock(l)

	for i := 0; i < 10; i++ {
		l.Warn("a")
	}
	// A different message — and the same message at a different level —
	// have their own buckets.
	l.Warn("b")
	l.Error("a")
	out := buf.String()
	if got := strings.Count(out, "warn a"); got != 5 {
		t.Errorf("warn a lines = %d, want 5", got)
	}
	if !strings.Contains(out, "warn b") || !strings.Contains(out, "error a") {
		t.Errorf("distinct sites were limited together: %q", out)
	}
}

func TestInfoIsNeverRateLimited(t *testing.T) {
	var buf syncBuf
	l := New(&buf, LevelDebug, false)
	withClock(l)
	for i := 0; i < 50; i++ {
		l.Info("tick")
	}
	if got := strings.Count(buf.String(), "tick"); got != 50 {
		t.Errorf("info lines = %d, want all 50 (no limiting below warn)", got)
	}
}
