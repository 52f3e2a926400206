package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// processStart anchors span times and setup_s: package variables are
// initialised before main runs, so this is the first instant the process
// can observe.
var processStart = time.Now()

// span is one timed call into a layer, recorded by the benchmark around
// the call (or copied from one of the program's own tracers). Times are
// nanoseconds since process start. Op is the op index the span belongs
// to, -1 for set-up and probes; Parent is the ID of the span that caused
// it, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps the traced run's spans and counts in memory. A nil
// *recorder is tracing off: every method no-ops, so workloads never
// branch on it.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder { return &recorder{counts: map[string]float64{}} }

func noop() {}

// begin opens a span now; the returned func closes it.
func (r *recorder) begin(op, parent int, name string) (id int, end func()) {
	if r == nil {
		return -1, noop
	}
	start := time.Since(processStart).Nanoseconds()
	r.mu.Lock()
	id = len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start})
	r.mu.Unlock()
	return id, func() {
		stop := time.Since(processStart).Nanoseconds()
		r.mu.Lock()
		r.spans[id].End = stop
		r.mu.Unlock()
	}
}

// add stores a span timed by someone else (a program tracer).
func (r *recorder) add(op, parent int, name string, start time.Time, seconds float64) int {
	if r == nil {
		return -1
	}
	s := start.Sub(processStart).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: s, End: s + int64(seconds*1e9)})
	return id
}

// setParent re-parents a span once its parent's ID is known.
func (r *recorder) setParent(id, parent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Parent = parent
	r.mu.Unlock()
}

// count adds v to a named count (work done, bytes, hits, ...).
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// peak keeps the largest v seen under name (a high-water mark).
func (r *recorder) peak(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] = max(r.counts[name], v)
	r.mu.Unlock()
}

// traceFile is the traced run's artefact: everything the per-layer table
// is computed from, so a later reader can recompute it.
type traceFile struct {
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"counts"`
}

func writeTraceFile(path string, tf *traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readTraceFile(path string) (*traceFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tf := &traceFile{}
	return tf, json.Unmarshal(b, tf)
}

// selfNS is a span's duration minus the part of its interval that its
// child spans cover: overlapping children count once, and a child reaching
// outside the parent counts only for the part inside.
func selfNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

// spanTable indexes a trace for the per-layer table: durations by span
// name (ms), children by parent ID.
type spanTable struct {
	spans    []span
	byName   map[string][]float64
	children map[int][]span
}

func newSpanTable(spans []span) *spanTable {
	t := &spanTable{spans: spans, byName: map[string][]float64{}, children: map[int][]span{}}
	for _, s := range spans {
		t.byName[s.Name] = append(t.byName[s.Name], s.ms())
		if s.Parent >= 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

func (t *spanTable) total(name string) float64 { return sum(t.byName[name]) }
func (t *spanTable) p50(name string) float64   { return median(t.byName[name]) }
func (t *spanTable) n(name string) float64     { return float64(len(t.byName[name])) }

// selfP50 is the median self time (ms) over the spans called name.
func (t *spanTable) selfP50(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(selfNS(s, t.children[s.ID]))/1e6)
		}
	}
	return median(xs)
}

// coverage is the share of the "op" spans' time that their direct child
// spans account for.
func (t *spanTable) coverage() float64 {
	var total, self int64
	for _, s := range t.spans {
		if s.Name == "op" {
			total += s.End - s.Start
			self += selfNS(s, t.children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}
