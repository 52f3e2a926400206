// Package slo turns the tsdb metrics history into judgement: declarative
// service-level objectives (per-route p-latency, availability, queue
// depth) evaluated with multi-window burn rates in the Google SRE style.
// An objective's burn rate is its observed error fraction divided by its
// error budget (1 - target); a fast rule (5m AND 1h windows both burning
// ≥ 14.4×) catches sudden outages, a slow rule (6h AND 1h both ≥ 6×)
// catches slow bleeds. A breach flips the tier's health to "degraded" —
// which the shard prober deprioritizes but does not eject — and lands in
// the event journal. The engine evaluates once per history sample, at the
// sample's time, and every window ends there; GET /debug/slo and the
// tier's health serve the last report, and the sickle_slo_* gauges
// surface the same numbers on /metrics.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/tsdb"
)

// Kind names what an objective measures.
type Kind string

const (
	KindLatency      Kind = "latency"      // fraction of requests over a duration threshold
	KindAvailability Kind = "availability" // fraction of requests that errored
	KindQueueDepth   Kind = "queue_depth"  // fraction of samples with the queue above a depth
)

// Objective is one declared target. Specs are compact colon-joined
// scalars, comma-separated in -slo:
//
//	latency:<route>:<threshold duration>:<target percent>
//	availability:<route>:<target percent>
//	queue_depth:<max depth>:<target percent>
//
// Route may be "*" to match every route.
type Objective struct {
	Kind      Kind          `json:"kind"`
	Route     string        `json:"route,omitempty"`
	Threshold time.Duration `json:"threshold,omitempty"` // latency only
	Depth     float64       `json:"depth,omitempty"`     // queue_depth only
	Target    float64       `json:"target"`              // percent, e.g. 99.9
}

// ParseObjective decodes a compact spec string.
func ParseObjective(spec string) (Objective, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	bad := func(why string) (Objective, error) {
		return Objective{}, fmt.Errorf("slo spec %q: %s", spec, why)
	}
	if len(parts) < 2 {
		return bad("want kind:...:target")
	}
	target, err := strconv.ParseFloat(parts[len(parts)-1], 64)
	if err != nil || !(target > 0 && target < 100) { // NaN fails every comparison
		return bad("target must be a percent in (0, 100)")
	}
	switch Kind(parts[0]) {
	case KindLatency:
		if len(parts) != 4 {
			return bad("want latency:<route>:<threshold>:<target>")
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d <= 0 {
			return bad("bad threshold duration")
		}
		return Objective{Kind: KindLatency, Route: parts[1], Threshold: d, Target: target}, nil
	case KindAvailability:
		if len(parts) != 3 {
			return bad("want availability:<route>:<target>")
		}
		return Objective{Kind: KindAvailability, Route: parts[1], Target: target}, nil
	case KindQueueDepth:
		if len(parts) != 3 {
			return bad("want queue_depth:<depth>:<target>")
		}
		depth, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !(depth >= 0) || math.IsInf(depth, 1) {
			return bad("bad depth")
		}
		return Objective{Kind: KindQueueDepth, Depth: depth, Target: target}, nil
	default:
		return bad("unknown kind " + parts[0])
	}
}

// ParseObjectives decodes a list of specs, failing on the first bad one.
func ParseObjectives(specs []string) ([]Objective, error) {
	var out []Objective
	for _, s := range specs {
		o, err := ParseObjective(s)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Name is the objective's stable identity, used as the slo label value.
func (o Objective) Name() string {
	switch o.Kind {
	case KindLatency:
		return fmt.Sprintf("latency:%s<%s", o.Route, o.Threshold)
	case KindAvailability:
		return "availability:" + o.Route
	default:
		return fmt.Sprintf("queue_depth<=%g", o.Depth)
	}
}

// MetricNames maps an engine onto a tier's metric vocabulary.
type MetricNames struct {
	RequestsTotal string // counter, labeled by RouteLabel
	ErrorsTotal   string // counter, labeled by RouteLabel
	LatencyHist   string // histogram of seconds, labeled by RouteLabel
	QueueGauge    string // gauge (queue_depth objectives)
	RouteLabel    string
}

// ServeMetrics and ShardMetrics are the two tiers' vocabularies.
var (
	ServeMetrics = MetricNames{
		RequestsTotal: "sickle_requests_total",
		ErrorsTotal:   "sickle_request_errors_total",
		LatencyHist:   "sickle_request_seconds",
		QueueGauge:    "sickle_queue_depth",
		RouteLabel:    "route",
	}
	ShardMetrics = MetricNames{
		RequestsTotal: "sickle_shard_requests_total",
		ErrorsTotal:   "sickle_shard_request_errors_total",
		LatencyHist:   "sickle_shard_request_seconds",
		RouteLabel:    "route",
	}
)

// Windows parameterizes the multi-window burn-rate rules. The fast rule
// fires when both the Fast and Mid windows burn at ≥ FastBurn; the slow
// rule when both the Slow and Mid windows burn at ≥ SlowBurn.
type Windows struct {
	Fast     time.Duration
	Mid      time.Duration
	Slow     time.Duration
	FastBurn float64
	SlowBurn float64
}

// DefaultWindows is the classic 2%-of-monthly-budget-in-an-hour pairing.
var DefaultWindows = Windows{
	Fast: 5 * time.Minute, Mid: time.Hour, Slow: 6 * time.Hour,
	FastBurn: 14.4, SlowBurn: 6,
}

// WindowBurn is one window's evaluation for one objective.
type WindowBurn struct {
	Window        string  `json:"window"`
	Seconds       float64 `json:"seconds"`
	ErrorFraction float64 `json:"errorFraction"`
	BurnRate      float64 `json:"burnRate"`
	Samples       float64 `json:"samples"` // requests (or gauge points) seen
}

// ObjectiveReport is one objective's evaluation.
type ObjectiveReport struct {
	Name            string       `json:"name"`
	Objective       Objective    `json:"objective"`
	Windows         []WindowBurn `json:"windows"` // fast, mid, slow
	Breached        bool         `json:"breached"`
	BudgetRemaining float64      `json:"budgetRemaining"` // of the slow window, in [0, 1]
}

// Report is the /debug/slo response body.
type Report struct {
	Tier       string            `json:"tier"`
	Status     string            `json:"status"` // ok | degraded
	Objectives []ObjectiveReport `json:"objectives"`
}

// Engine evaluates objectives against a tsdb store after each of its
// samples, keeps the sickle_slo_* gauges current, and journals breach
// transitions. Safe for concurrent use; a nil *Engine reports status "ok"
// and no objectives.
type Engine struct {
	tier       string
	store      *tsdb.Store
	names      MetricNames
	objectives []Objective
	journal    *events.Journal
	windows    Windows // DefaultWindows; the package's tests shrink them

	mu       sync.Mutex
	breached map[string]bool
	degraded bool
	last     Report // the latest evaluation: what Status and HandleSLO serve

	burnG   *obs.GaugeVec
	breachG *obs.GaugeVec
	budgetG *obs.GaugeVec
}

// NewEngine builds an engine over store for the given objectives. reg and
// journal may be nil (gauges / events are then skipped).
func NewEngine(tier string, store *tsdb.Store, names MetricNames, objectives []Objective, reg *obs.Registry, journal *events.Journal) *Engine {
	e := &Engine{
		tier: tier, store: store, names: names, objectives: objectives,
		journal: journal, windows: DefaultWindows, breached: map[string]bool{},
		last: Report{Tier: tier, Status: "ok", Objectives: []ObjectiveReport{}},
	}
	store.OnSample(func(at time.Time) { e.evaluate(at) })
	if reg != nil {
		e.burnG = reg.Gauge("sickle_slo_burn_rate",
			"Error-budget burn rate per objective and window (1.0 = exactly on budget).",
			"slo", "window")
		e.breachG = reg.Gauge("sickle_slo_breached",
			"1 when the objective's multi-window burn-rate rules are firing.", "slo")
		e.budgetG = reg.Gauge("sickle_slo_error_budget_remaining",
			"Fraction of the error budget left over the slow window.", "slo")
	}
	return e
}

// Status reports the tier's health as of the last sample: "ok" or
// "degraded" ("ok" before the first).
func (e *Engine) Status() string { return e.report().Status }

// HandleSLO serves the last evaluation (GET /debug/slo).
func (e *Engine) HandleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e.report())
}

func (e *Engine) report() Report {
	if e == nil {
		return Report{Status: "ok"}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// evaluate runs every objective over the history up to at, refreshes the
// gauges, journals breach/recover and degraded/recovered transitions, and
// keeps and returns the report.
func (e *Engine) evaluate(at time.Time) Report {
	if e == nil {
		return Report{Status: "ok"}
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	rep := Report{Tier: e.tier, Status: "ok", Objectives: []ObjectiveReport{}}
	anyBreach := false
	for _, o := range e.objectives {
		or := e.evaluateObjective(o, at)
		if or.Breached {
			anyBreach = true
		}
		e.noteTransition(or)
		rep.Objectives = append(rep.Objectives, or)
	}
	sort.SliceStable(rep.Objectives, func(a, b int) bool {
		return rep.Objectives[a].Name < rep.Objectives[b].Name
	})
	if anyBreach {
		rep.Status = "degraded"
	}
	if anyBreach != e.degraded {
		e.degraded = anyBreach
		if anyBreach {
			e.journal.Emit(events.TypeDegraded, "tier degraded: SLO burn-rate rules firing", "")
		} else {
			e.journal.Emit(events.TypeRecovered, "tier recovered: all SLO burn rates under threshold", "")
		}
	}
	e.last = rep
	return rep
}

// noteTransition journals breach/recover edges and keeps the per-SLO
// breach gauge current. Caller holds e.mu.
func (e *Engine) noteTransition(or ObjectiveReport) {
	was := e.breached[or.Name]
	if or.Breached && !was {
		kv := []string{"slo", or.Name}
		for _, wb := range or.Windows {
			kv = append(kv, "burn_"+wb.Window, strconv.FormatFloat(wb.BurnRate, 'g', 4, 64))
		}
		e.journal.Emit(events.TypeSLOBreach, "SLO breach: "+or.Name, "", kv...)
	} else if !or.Breached && was {
		e.journal.Emit(events.TypeSLORecover, "SLO recovered: "+or.Name, "", "slo", or.Name)
	}
	e.breached[or.Name] = or.Breached
	if e.breachG != nil {
		v := 0.0
		if or.Breached {
			v = 1
		}
		e.breachG.With(or.Name).Set(v)
		e.budgetG.With(or.Name).Set(or.BudgetRemaining)
		for _, wb := range or.Windows {
			e.burnG.With(or.Name, wb.Window).Set(wb.BurnRate)
		}
	}
}

func (e *Engine) evaluateObjective(o Objective, at time.Time) ObjectiveReport {
	w := e.windows
	budget := 1 - o.Target/100
	eval := func(label string, window time.Duration) WindowBurn {
		frac, n := e.errorFraction(o, at.Add(-window))
		return WindowBurn{
			Window: label, Seconds: window.Seconds(),
			ErrorFraction: frac, BurnRate: frac / budget, Samples: n,
		}
	}
	fast := eval("fast", w.Fast)
	mid := eval("mid", w.Mid)
	slow := eval("slow", w.Slow)

	breached := (fast.BurnRate >= w.FastBurn && mid.BurnRate >= w.FastBurn) ||
		(slow.BurnRate >= w.SlowBurn && mid.BurnRate >= w.SlowBurn)
	remaining := 1 - slow.ErrorFraction/budget
	if remaining < 0 {
		remaining = 0
	} else if remaining > 1 {
		remaining = 1
	}
	return ObjectiveReport{
		Name: o.Name(), Objective: o,
		Windows:  []WindowBurn{fast, mid, slow},
		Breached: breached, BudgetRemaining: remaining,
	}
}

// errorFraction computes an objective's bad fraction (and sample count)
// since one window's cutoff. No traffic means no errors.
func (e *Engine) errorFraction(o Objective, since time.Time) (frac, samples float64) {
	// The name check matters when the tier has no such family: Query reads
	// the "" of ShardMetrics.QueueGauge as "every family".
	window := func(name string) tsdb.Sum {
		return tsdb.Window(e.store.Query([]string{name}, since), 0, func(sr *tsdb.Series) bool {
			return sr.Name == name && (o.Route == "" || o.Route == "*" || sr.Labels[e.names.RouteLabel] == o.Route)
		})
	}
	switch o.Kind {
	case KindAvailability:
		total := window(e.names.RequestsTotal).Total
		if total <= 0 {
			return 0, 0
		}
		return window(e.names.ErrorsTotal).Total / total, total
	case KindLatency:
		h := window(e.names.LatencyHist)
		if h.Count == 0 {
			return 0, 0
		}
		// "Good" = observations in buckets whose upper bound is at or
		// under the threshold. With no such bucket every request counts
		// bad — conservative, and it makes breaches inducible in tests.
		cut := o.Threshold.Seconds()
		var good uint64
		for i, ub := range h.Buckets {
			if ub <= cut {
				good += h.Counts[i]
			}
		}
		return float64(h.Count-good) / float64(h.Count), float64(h.Count)
	default: // KindQueueDepth
		depths := window(e.names.QueueGauge).Gauge
		if len(depths) == 0 {
			return 0, 0
		}
		above := 0
		for _, d := range depths {
			if d > o.Depth {
				above++
			}
		}
		return float64(above) / float64(len(depths)), float64(len(depths))
	}
}
