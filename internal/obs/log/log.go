// Package olog is the structured, leveled logger shared by the sickle
// binaries and the serve/shard request paths. Records are key-value
// pairs rendered either as logfmt-style text or as JSON objects, chosen
// at construction — the binaries wire this to -log-level / -log-json.
package olog

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Level orders log records by severity.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// parseLevel maps a -log-level value in any case to a Level ("" is info,
// "warning" is warn); anything else is an error, so flag parsing rejects a
// typo.
func parseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown level %q (want debug|info|warn|error)", s)
}

// Logger writes leveled key-value records. A nil *Logger discards
// everything, so components can hold one unconditionally. Methods are
// safe for concurrent use.
type Logger struct {
	mu   *sync.Mutex
	w    io.Writer
	min  Level
	json bool
	lim  *limiter
	now  func() time.Time
}

// Warn/error flood control defaults: every distinct message gets a burst
// of identical lines, then one token back per refill interval; suppressed
// repeats are counted and reported on the next emitted line.
const (
	defaultLimitBurst  = 5
	defaultLimitRefill = time.Second
)

// limiter is a per-call-site (keyed by level+message) token bucket, so a
// flapping replica repeating one warn line cannot flood the journal.
type limiter struct {
	mu     sync.Mutex
	burst  float64
	refill time.Duration
	sites  map[string]*site
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
		s = &site{tokens: l.burst, last: t}
		l.sites[key] = s
	}
	if dt := t.Sub(s.last); dt > 0 {
		s.tokens += float64(dt) / float64(l.refill)
		if s.tokens > l.burst {
			s.tokens = l.burst
		}
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

// New builds a logger writing records at or above min to w; jsonOut
// selects JSON objects instead of logfmt text. Repeated identical warn and
// error messages are rate-limited per call site (token bucket, burst 5,
// one token back per second) with a suppressed=N tail on the next line
// written.
func New(w io.Writer, min Level, jsonOut bool) *Logger {
	return &Logger{
		mu: &sync.Mutex{}, w: w, min: min, json: jsonOut, now: time.Now,
		lim: &limiter{burst: defaultLimitBurst, refill: defaultLimitRefill,
			sites: map[string]*site{}},
	}
}

// Flags registers -log-level and -log-json on fs and returns the
// constructor to call once fs is parsed: it builds the stderr logger the
// flags describe. An unknown level fails the parse.
func Flags(fs *flag.FlagSet) func() *Logger {
	level := LevelInfo
	fs.Func("log-level", "minimum log level: debug|info|warn|error (default info)", func(s string) (err error) {
		level, err = parseLevel(s)
		return err
	})
	jsonOut := fs.Bool("log-json", false, "emit logs as JSON lines")
	return func() *Logger { return New(os.Stderr, level, *jsonOut) }
}

// Enabled reports whether records at lvl would be written.
func (l *Logger) Enabled(lvl Level) bool { return l != nil && lvl >= l.min }

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lvl Level, msg string, kv []any) {
	if !l.Enabled(lvl) {
		return
	}
	t := l.now()
	if lvl >= LevelWarn {
		ok, suppressed := l.lim.allow(lvl.String()+"\x00"+msg, t)
		if !ok {
			return
		}
		if suppressed > 0 {
			kv = append(append([]any{}, kv...), "suppressed", suppressed)
		}
	}
	ts := t.Format(time.RFC3339Nano)

	var line []byte
	if l.json {
		obj := map[string]any{"ts": ts, "level": lvl.String(), "msg": msg}
		for i := 0; i+1 < len(kv); i += 2 {
			obj[fmt.Sprint(kv[i])] = kv[i+1]
		}
		if len(kv)%2 == 1 {
			obj["_odd_key"] = fmt.Sprint(kv[len(kv)-1])
		}
		line = appendJSON(obj)
	} else {
		var b strings.Builder
		b.WriteString(ts)
		b.WriteByte(' ')
		b.WriteString(lvl.String())
		b.WriteByte(' ')
		b.WriteString(msg)
		for i := 0; i+1 < len(kv); i += 2 {
			b.WriteByte(' ')
			b.WriteString(fmt.Sprint(kv[i]))
			b.WriteByte('=')
			b.WriteString(quoteIfNeeded(fmt.Sprint(kv[i+1])))
		}
		if len(kv)%2 == 1 {
			b.WriteString(" _odd_key=")
			b.WriteString(quoteIfNeeded(fmt.Sprint(kv[len(kv)-1])))
		}
		b.WriteByte('\n')
		line = []byte(b.String())
	}

	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
}

// appendJSON marshals with deterministic key order (ts/level/msg first,
// then sorted) so log lines are stable for tests and grepping.
func appendJSON(obj map[string]any) []byte {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		if k == "ts" || k == "level" || k == "msg" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(`{"ts":`)
	writeJSONVal(&b, obj["ts"])
	b.WriteString(`,"level":`)
	writeJSONVal(&b, obj["level"])
	b.WriteString(`,"msg":`)
	writeJSONVal(&b, obj["msg"])
	for _, k := range keys {
		b.WriteByte(',')
		writeJSONVal(&b, k)
		b.WriteByte(':')
		writeJSONVal(&b, obj[k])
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

func writeJSONVal(b *strings.Builder, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprint(v))
	}
	b.Write(enc)
}

func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t\n\"=") {
		enc, _ := json.Marshal(s)
		return string(enc)
	}
	return s
}
