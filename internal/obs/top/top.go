// Package top is the library behind cmd/sickle-top: it polls one serving
// target (a sickle-shard router or a bare sickle-serve) over its
// /healthz, /debug/slo, /debug/events, and /debug/history endpoints and
// derives the operator's view — per-replica QPS, p50/p99 latency, error
// rate, SLO burn rates, and the live event tail. The e2e tests consume
// Collect directly; the binary renders the same Snapshot as an ANSI
// dashboard (or, with -once, as one JSON document for CI).
package top

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/pkg/api"
	"repro/pkg/client"
)

// DefaultWindow is the trailing window the rate/latency stats cover.
const DefaultWindow = 60 * time.Second

// ReplicaStats is one replica's derived load view. Replica "" is the
// target tier itself (the router's own request path, or a bare serve).
type ReplicaStats struct {
	Replica   string  `json:"replica,omitempty"`
	QPS       float64 `json:"qps"`
	ErrorRate float64 `json:"errorRate"` // errors / requests over the window
	P50       float64 `json:"p50"`       // seconds
	P99       float64 `json:"p99"`       // seconds
	Requests  float64 `json:"requests"`  // absolute count over the window
}

// Snapshot is one Collect result: the raw debug payloads plus the
// derived per-replica stats. It marshals to the -once JSON document.
type Snapshot struct {
	Target   string          `json:"target"`
	Time     time.Time       `json:"time"`
	Health   *api.Health     `json:"health,omitempty"`
	SLO      *slo.Report     `json:"slo,omitempty"`
	Events   *events.Payload `json:"events,omitempty"`
	History  *tsdb.Payload   `json:"history,omitempty"`
	Replicas []ReplicaStats  `json:"replicas"`

	// Errors lists endpoints that could not be fetched (the dashboard
	// degrades instead of dying with the target).
	Errors []string `json:"errors,omitempty"`
}

// Collect polls every debug endpoint of target and derives the stats
// over the trailing window (0 = DefaultWindow). Endpoint failures are
// recorded in Snapshot.Errors, not returned: a half-answering target
// still yields a usable view.
func Collect(ctx context.Context, c *client.Client, target string, window time.Duration) *Snapshot {
	if window <= 0 {
		window = DefaultWindow
	}
	s := &Snapshot{Target: target, Time: time.Now(), Replicas: []ReplicaStats{}}
	var err error
	if s.Health, err = c.Health(ctx); err != nil {
		s.Errors = append(s.Errors, "healthz: "+err.Error())
	}
	s.SLO = fetch[slo.Report](s, "slo", func() ([]byte, error) { return c.DebugSLOJSON(ctx) })
	s.Events = fetch[events.Payload](s, "events", func() ([]byte, error) { return c.DebugEventsJSON(ctx, "limit=64") })
	s.History = fetch[tsdb.Payload](s, "history", func() ([]byte, error) {
		return c.DebugHistoryJSON(ctx, fmt.Sprintf("since=%s", window))
	})
	if s.History != nil {
		s.Replicas = DeriveReplicaStats(s.History, window)
	}
	return s
}

// fetch decodes one debug endpoint's JSON answer, or notes under what in
// s.Errors why it could not and returns nil.
func fetch[T any](s *Snapshot, what string, get func() ([]byte, error)) *T {
	raw, err := get()
	if err == nil {
		v := new(T)
		if err = json.Unmarshal(raw, v); err == nil {
			return v
		}
	}
	s.Errors = append(s.Errors, what+": "+err.Error())
	return nil
}

// DeriveReplicaStats reduces a history payload to per-replica QPS, error
// rate, and latency quantiles over the trailing window. The payload's
// newest sample timestamp anchors the window, so the math is immune to
// clock skew between collector and target.
func DeriveReplicaStats(p *tsdb.Payload, window time.Duration) []ReplicaStats {
	cutoff := tsdb.Window(p.Series, 0, nil).Last - window.Seconds()
	named := func(names ...string) func(*tsdb.Series) bool {
		return func(sr *tsdb.Series) bool { return slices.Contains(names, sr.Name) }
	}
	serve, shard := slo.ServeMetrics, slo.ShardMetrics
	requests := named(serve.RequestsTotal, shard.RequestsTotal)
	errs := named(serve.ErrorsTotal, shard.ErrorsTotal)
	latency := named(serve.LatencyHist, shard.LatencyHist)
	byReplica := map[string][]tsdb.Series{}
	for i := range p.Series {
		if sr := &p.Series[i]; requests(sr) || errs(sr) || latency(sr) {
			byReplica[sr.Replica] = append(byReplica[sr.Replica], *sr)
		}
	}

	out := make([]ReplicaStats, 0, len(byReplica))
	for replica, group := range byReplica {
		req := tsdb.Window(group, cutoff, requests)
		lat := tsdb.Window(group, cutoff, latency)
		rs := ReplicaStats{
			Replica:  replica,
			Requests: req.Total,
			P50:      Quantile(lat.Buckets, lat.Counts, 0.50),
			P99:      Quantile(lat.Buckets, lat.Counts, 0.99),
		}
		// Each point carries the delta of the interval that ends at it, so
		// the points cover one interval more than the time between them.
		if span := req.Last - req.First + p.IntervalSeconds; span > 0 {
			rs.QPS = req.Total / span
		}
		if req.Total > 0 {
			rs.ErrorRate = tsdb.Window(group, cutoff, errs).Total / req.Total
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) from per-bucket
// observation counts (+Inf last), interpolating linearly inside the
// winning bucket in the Prometheus histogram_quantile style. Returns 0
// with no observations; an answer in the +Inf bucket clamps to the last
// finite bound.
func Quantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(buckets) { // +Inf bucket
			if len(buckets) == 0 {
				return 0
			}
			return buckets[len(buckets)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = buckets[i-1]
		}
		upper := buckets[i]
		if c == 0 {
			return upper
		}
		within := rank - float64(cum-c)
		return lower + (upper-lower)*(within/float64(c))
	}
	if len(buckets) == 0 {
		return 0
	}
	return buckets[len(buckets)-1]
}

// ---- rendering ----

// ANSI bits, gated by the color flag.
const (
	ansiReset = "\x1b[0m"
	ansiBold  = "\x1b[1m"
	ansiDim   = "\x1b[2m"
	ansiRed   = "\x1b[31m"
	ansiGreen = "\x1b[32m"
	ansiYell  = "\x1b[33m"
)

// Render draws the Snapshot as a plain-ANSI dashboard. With color off
// the output is pure ASCII (stable for CI logs and tests).
func Render(s *Snapshot, color bool) string {
	paint := func(code, txt string) string {
		if !color {
			return txt
		}
		return code + txt + ansiReset
	}
	var b strings.Builder

	status := "unknown"
	if s.Health != nil {
		status = s.Health.Status
	}
	statusTxt := status
	switch status {
	case "ok":
		statusTxt = paint(ansiGreen, status)
	case "degraded":
		statusTxt = paint(ansiYell, status)
	default:
		statusTxt = paint(ansiRed, status)
	}
	fmt.Fprintf(&b, "%s  %s  status=%s  %s\n",
		paint(ansiBold, "sickle-top"), s.Target, statusTxt,
		s.Time.Format(time.RFC3339))
	if s.Health != nil {
		fmt.Fprintf(&b, "uptime=%.0fs queue=%d models=%d\n",
			s.Health.UptimeSeconds, s.Health.QueueDepth, len(s.Health.Models))
	}

	if s.Health != nil && len(s.Health.Replicas) > 0 {
		b.WriteString(paint(ansiBold, "\nreplicas\n"))
		for _, r := range s.Health.Replicas {
			state := paint(ansiGreen, "up")
			if !r.Up {
				state = paint(ansiRed, "DOWN")
			} else if r.Status == "degraded" {
				state = paint(ansiYell, "degraded")
			}
			fmt.Fprintf(&b, "  %-4s %-28s %s", r.ID, r.URL, state)
			if r.Error != "" {
				fmt.Fprintf(&b, "  %s", paint(ansiDim, r.Error))
			}
			b.WriteByte('\n')
		}
	}

	if len(s.Replicas) > 0 {
		b.WriteString(paint(ansiBold, "\nload (trailing window)\n"))
		fmt.Fprintf(&b, "  %-8s %8s %9s %9s %7s\n", "replica", "qps", "p50", "p99", "err%")
		for _, r := range s.Replicas {
			name := r.Replica
			if name == "" {
				name = "(self)"
			}
			fmt.Fprintf(&b, "  %-8s %8.1f %8.1fms %8.1fms %6.2f%%\n",
				name, r.QPS, r.P50*1000, r.P99*1000, r.ErrorRate*100)
		}
	}

	if s.SLO != nil && len(s.SLO.Objectives) > 0 {
		b.WriteString(paint(ansiBold, "\nslo burn rates\n"))
		fmt.Fprintf(&b, "  %-34s %8s %8s %8s %8s\n", "objective", "fast", "mid", "slow", "budget")
		for _, o := range s.SLO.Objectives {
			burn := map[string]float64{}
			for _, w := range o.Windows {
				burn[w.Window] = w.BurnRate
			}
			line := fmt.Sprintf("  %-34s %8.2f %8.2f %8.2f %7.0f%%",
				o.Name, burn["fast"], burn["mid"], burn["slow"], o.BudgetRemaining*100)
			if o.Breached {
				line = paint(ansiRed, line+"  BREACHED")
			}
			b.WriteString(line + "\n")
		}
	}

	if s.Events != nil && len(s.Events.Events) > 0 {
		b.WriteString(paint(ansiBold, "\nevents\n"))
		tail := s.Events.Events
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		for _, e := range tail {
			line := fmt.Sprintf("  %s %-12s %s",
				e.Time.Format("15:04:05"), e.Type, e.Msg)
			if e.Attrs["replica"] != "" {
				line += " [" + e.Attrs["replica"] + "]"
			}
			if e.TraceID != "" {
				line += paint(ansiDim, " trace="+e.TraceID)
			}
			switch e.Type {
			case events.TypeEjection, events.TypeSLOBreach, events.TypeJobPanic, events.TypeDegraded:
				line = paint(ansiRed, line)
			case events.TypeReadmission, events.TypeSLORecover, events.TypeRecovered:
				line = paint(ansiGreen, line)
			}
			b.WriteString(line + "\n")
		}
	}

	for _, e := range s.Errors {
		b.WriteString(paint(ansiDim, "  ! "+e) + "\n")
	}
	return b.String()
}
