package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Point is one sampled value in the wire payload: t is unix seconds, v is
// the gauge value or counter delta for that interval.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// HistPoint is one sampled histogram interval: per-bucket observation
// deltas (+Inf last), plus the interval's total count and sum.
type HistPoint struct {
	T      float64  `json:"t"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
}

// Series is one metric stream in the wire payload. Exemplars maps a
// bucket's le bound (or "+Inf") to the trace ID of a recent observation
// that landed there — the JSON-side exemplar surface that /metrics (text
// format 0.0.4) cannot carry. Replica is set only by the shard router's
// scatter-gather merge, naming the origin replica.
type Series struct {
	Name       string            `json:"name"`
	Kind       string            `json:"kind"`
	Labels     map[string]string `json:"labels,omitempty"`
	Replica    string            `json:"replica,omitempty"`
	Buckets    []float64         `json:"buckets,omitempty"`
	Exemplars  map[string]string `json:"exemplars,omitempty"`
	Points     []Point           `json:"points,omitempty"`
	HistPoints []HistPoint       `json:"histPoints,omitempty"`
}

// Payload is the /debug/history response body.
type Payload struct {
	Tier            string   `json:"tier"`
	IntervalSeconds float64  `json:"intervalSeconds"`
	Series          []Series `json:"series"`
}

// Query returns the stored history for series whose family name matches
// any of the glob patterns (nil/empty patterns match everything), clipped
// to points at or after since (zero means all). Series are ordered by
// first appearance, which the registry keeps sorted per snapshot.
func (s *Store) Query(patterns []string, since time.Time) []Series {
	if s == nil {
		return nil
	}
	match := func(name string) bool {
		if len(patterns) == 0 {
			return true
		}
		for _, p := range patterns {
			if matchName(p, name) {
				return true
			}
		}
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Series
	for _, key := range s.order {
		sr := s.series[key]
		if sr == nil || !match(sr.name) {
			continue
		}
		ws := Series{Name: sr.name, Kind: sr.kind}
		if len(sr.labels) > 0 {
			ws.Labels = make(map[string]string, len(sr.labels))
			for k, v := range sr.labels {
				ws.Labels[k] = v
			}
		}
		pts := sr.pts.Snapshot()
		if sr.kind == "histogram" {
			ws.Buckets = sr.buckets
			ws.Exemplars = exemplarMap(sr.buckets, sr.exemplars)
			ws.HistPoints = make([]HistPoint, 0, len(pts))
			for _, p := range pts {
				if !since.IsZero() && p.t.Before(since) {
					continue
				}
				ws.HistPoints = append(ws.HistPoints, HistPoint{
					T: unixSec(p.t), Counts: p.bucketDeltas,
					Count: p.countDelta, Sum: p.sumDelta,
				})
			}
		} else {
			ws.Points = make([]Point, 0, len(pts))
			for _, p := range pts {
				if !since.IsZero() && p.t.Before(since) {
					continue
				}
				ws.Points = append(ws.Points, Point{T: unixSec(p.t), V: p.v})
			}
		}
		out = append(out, ws)
	}
	return out
}

func unixSec(t time.Time) float64 {
	return float64(t.UnixMilli()) / 1000
}

// exemplarMap pairs bucket bounds with their latest trace-ID exemplars,
// skipping buckets that never saw an exemplar.
func exemplarMap(buckets []float64, exemplars []string) map[string]string {
	var out map[string]string
	for i, ex := range exemplars {
		if ex == "" {
			continue
		}
		if out == nil {
			out = map[string]string{}
		}
		if i < len(buckets) {
			out[strconv.FormatFloat(buckets[i], 'g', -1, 64)] = ex
		} else {
			out["+Inf"] = ex
		}
	}
	return out
}

// ParseQuery reads a /debug/history query string: series (comma-separated
// name globs, default all) and since (RFC3339 or a Go duration like "5m"
// meaning that long ago). A malformed since is answered with a 400 here
// (ok false) — for the store's own handler and for the shard router's
// fleet-wide merge alike.
func ParseQuery(w http.ResponseWriter, r *http.Request) (patterns []string, since time.Time, ok bool) {
	v := r.URL.Query()
	for _, p := range strings.Split(v.Get("series"), ",") {
		if p = strings.TrimSpace(p); p != "" {
			patterns = append(patterns, p)
		}
	}
	since, err := obs.ParseSince(v.Get("since"), time.Now())
	if err != nil {
		http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
	}
	return patterns, since, err == nil
}

// Payload answers one query from this store alone. Nil-safe.
func (s *Store) Payload(patterns []string, since time.Time) Payload {
	p := Payload{IntervalSeconds: s.Interval().Seconds(), Series: s.Query(patterns, since)}
	if s != nil {
		p.Tier = s.tier
	}
	if p.Series == nil {
		p.Series = []Series{}
	}
	return p
}

// HandleHistory serves the stored history (GET /debug/history).
func (s *Store) HandleHistory(w http.ResponseWriter, r *http.Request) {
	patterns, since, ok := ParseQuery(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Payload(patterns, since))
}
