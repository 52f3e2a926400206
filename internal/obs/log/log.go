// Package olog builds the *slog.Logger the sickle binaries and the
// serve/shard request paths log through. Flags wires -log-level and
// -log-json to slog's own text or JSON handler on stderr; the one policy
// added on top is a per-message rate limit on warn and error lines.
package olog

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"
)

// levels are the accepted -log-level values, matched in any case.
var levels = map[string]slog.Level{
	"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
	"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
}

// Flags registers -log-level and -log-json on fs and returns the
// constructor to call once fs is parsed: it builds the stderr logger the
// flags describe. An unknown level fails the parse.
func Flags(fs *flag.FlagSet) func() *slog.Logger {
	level := slog.LevelInfo
	fs.Func("log-level", "minimum log level: debug|info|warn|error (default info)", func(s string) error {
		l, ok := levels[strings.ToLower(strings.TrimSpace(s))]
		if !ok {
			return fmt.Errorf("unknown level %q (want debug|info|warn|error)", s)
		}
		level = l
		return nil
	})
	jsonOut := fs.Bool("log-json", false, "emit logs as JSON lines")
	return func() *slog.Logger { return newLogger(os.Stderr, level, *jsonOut) }
}

// newLogger writes records at or above level to w, as JSON objects when
// jsonOut is set and logfmt text otherwise, through the rate limit.
func newLogger(w io.Writer, level slog.Level, jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler = slog.NewTextHandler(w, opts)
	if jsonOut {
		h = slog.NewJSONHandler(w, opts)
	}
	return slog.New(&limited{Handler: h, lim: &limiter{sites: map[string]*site{}}})
}

// limited passes warn and error records through lim before the handler it
// wraps; children built by WithAttrs and WithGroup share lim, so a logger
// and its With children draw on the same buckets.
type limited struct {
	slog.Handler
	lim *limiter
}

func (h *limited) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelWarn {
		ok, suppressed := h.lim.allow(r.Level.String()+"\x00"+r.Message, r.Time)
		if !ok {
			return nil
		}
		if suppressed > 0 {
			r = r.Clone()
			r.AddAttrs(slog.Int("suppressed", suppressed))
		}
	}
	return h.Handler.Handle(ctx, r)
}

func (h *limited) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &limited{Handler: h.Handler.WithAttrs(attrs), lim: h.lim}
}

func (h *limited) WithGroup(name string) slog.Handler {
	return &limited{Handler: h.Handler.WithGroup(name), lim: h.lim}
}

// Warn/error flood control: every distinct message gets a burst of
// identical lines, then one token back per refill interval; suppressed
// repeats are counted and reported on the next emitted line.
const (
	limitBurst  = 5
	limitRefill = time.Second
)

// limiter is a per-call-site (keyed by level+message) token bucket, so a
// flapping replica repeating one warn line cannot flood the journal.
type limiter struct {
	mu    sync.Mutex
	sites map[string]*site
}

type site struct {
	tokens     float64
	last       time.Time
	suppressed int
}

// allow charges one token for key at time t. It returns whether the line
// may be written and, when it may, how many identical lines were
// suppressed since the last one written.
func (l *limiter) allow(key string, t time.Time) (ok bool, suppressed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, have := l.sites[key]
	if !have {
		// Bound the site map: a pathological stream of distinct messages
		// must not grow it forever. Resetting forgets suppression counts,
		// which only costs accuracy of the suppressed=N tail.
		if len(l.sites) >= 4096 {
			l.sites = map[string]*site{}
		}
		s = &site{tokens: limitBurst, last: t}
		l.sites[key] = s
	}
	if dt := t.Sub(s.last); dt > 0 {
		s.tokens = min(s.tokens+float64(dt)/float64(limitRefill), limitBurst)
		s.last = t
	}
	if s.tokens < 1 {
		s.suppressed++
		return false, 0
	}
	s.tokens--
	suppressed = s.suppressed
	s.suppressed = 0
	return true, suppressed
}
