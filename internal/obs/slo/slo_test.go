package slo

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/tsdb"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		spec string
		want Objective
		bad  bool
	}{
		{spec: "latency:/v2/infer:250ms:99.9",
			want: Objective{Kind: KindLatency, Route: "/v2/infer", Threshold: 250 * time.Millisecond, Target: 99.9}},
		{spec: "availability:/v2/infer:99.9",
			want: Objective{Kind: KindAvailability, Route: "/v2/infer", Target: 99.9}},
		{spec: "availability:*:95",
			want: Objective{Kind: KindAvailability, Route: "*", Target: 95}},
		{spec: "queue_depth:64:99",
			want: Objective{Kind: KindQueueDepth, Depth: 64, Target: 99}},
		{spec: "latency:/x:250ms:0", bad: true},     // target out of range
		{spec: "latency:/x:250ms:100", bad: true},   // target out of range
		{spec: "latency:/x:banana:99", bad: true},   // bad duration
		{spec: "latency:/x:99", bad: true},          // missing field
		{spec: "availability:/x:1:2:99", bad: true}, // extra field
		{spec: "queue_depth:-1:99", bad: true},      // negative depth
		{spec: "teapots:/x:99", bad: true},          // unknown kind
		{spec: "availability:/x:NaN", bad: true},    // NaN target: could never breach
		{spec: "latency:/x:250ms:nan", bad: true},   // NaN target
		{spec: "availability:*:Inf", bad: true},     // infinite target
		{spec: "queue_depth:NaN:99", bad: true},     // NaN depth
		{spec: "queue_depth:+Inf:99", bad: true},    // infinite depth
		{spec: "", bad: true},
	}
	for _, c := range cases {
		got, err := ParseObjective(c.spec)
		if c.bad {
			if err == nil {
				t.Errorf("ParseObjective(%q) = %+v, want error", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseObjective(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// FuzzParseObjective: the spec parser never panics, and an objective it
// accepts can burn: a finite target in (0, 100), a finite depth >= 0 and,
// for latency, a positive threshold.
func FuzzParseObjective(f *testing.F) {
	for _, s := range []string{"latency:/v2/infer:250ms:99.9", "availability:*:95", "queue_depth:64:99"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseObjective(spec)
		if err != nil {
			return
		}
		if !(o.Target > 0 && o.Target < 100) {
			t.Fatalf("%q: accepted target %v", spec, o.Target)
		}
		if !(o.Depth >= 0) || math.IsInf(o.Depth, 0) {
			t.Fatalf("%q: accepted depth %v", spec, o.Depth)
		}
		if o.Kind == KindLatency && o.Threshold <= 0 {
			t.Fatalf("%q: accepted threshold %v", spec, o.Threshold)
		}
	})
}

// sloHarness is a registry + store + engine triple the burn-rate tests
// drive sample by sample on a scripted time t.
type sloHarness struct {
	reg     *obs.Registry
	store   *tsdb.Store
	eng     *Engine
	journal *events.Journal
	t       time.Time
}

func newHarness(t *testing.T, objectives ...Objective) *sloHarness {
	t.Helper()
	h := &sloHarness{reg: obs.NewRegistry(), t: time.Unix(1_700_000_000, 0)}
	h.store = tsdb.NewStore("test", h.reg, time.Second, 1024)
	h.journal = events.NewJournal("test", 64)
	h.eng = NewEngine("test", h.store, ServeMetrics, objectives, h.reg, h.journal)
	return h
}

func (h *sloHarness) advance(d time.Duration) { h.t = h.t.Add(d) }
func (h *sloHarness) sample()                 { h.store.Sample(h.t) }
func (h *sloHarness) evaluate() Report        { return h.eng.evaluate(h.t) }

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestAvailabilityBurnRatesHandComputed scripts three traffic epochs and
// checks every window's burn rate against hand-computed values.
//
// Windows: fast 10s, mid 60s, slow 300s. Target 99% -> budget 0.01.
// Timeline (evaluation at t=300s):
//
//	t=5s    100 requests,  50 errors   (slow window only)
//	t=250s  100 requests,  10 errors   (slow + mid)
//	t=295s  100 requests,   1 error    (all three)
//
// fast: 1/100  = 0.01  -> burn 1
// mid:  11/200 = 0.055 -> burn 5.5
// slow: 61/300 ≈ 0.2033 -> burn ≈ 20.33
//
// With FastBurn 10 / SlowBurn 5, only the slow rule fires (slow ≥ 5 AND
// mid ≥ 5) -> breached, budget exhausted.
func TestAvailabilityBurnRatesHandComputed(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindAvailability, Route: "/v2/infer", Target: 99})
	h.eng.windows = Windows{
		Fast: 10 * time.Second, Mid: 60 * time.Second, Slow: 300 * time.Second,
		FastBurn: 10, SlowBurn: 5,
	}
	req := h.reg.Counter(ServeMetrics.RequestsTotal, "h", "route").With("/v2/infer")
	errs := h.reg.Counter(ServeMetrics.ErrorsTotal, "h", "route").With("/v2/infer")

	emit := func(requests, errors int) {
		req.Add(float64(requests))
		errs.Add(float64(errors))
		h.sample()
	}
	h.advance(5 * time.Second)
	emit(100, 50)
	h.advance(245 * time.Second)
	emit(100, 10)
	h.advance(45 * time.Second)
	emit(100, 1)
	h.advance(5 * time.Second) // now = t=300s

	rep := h.evaluate()
	if len(rep.Objectives) != 1 {
		t.Fatalf("got %d objective reports, want 1", len(rep.Objectives))
	}
	or := rep.Objectives[0]
	wantBurn := map[string]float64{
		"fast": 0.01 / 0.01,
		"mid":  (11.0 / 200.0) / 0.01,
		"slow": (61.0 / 300.0) / 0.01,
	}
	wantSamples := map[string]float64{"fast": 100, "mid": 200, "slow": 300}
	for _, wb := range or.Windows {
		if !approx(wb.BurnRate, wantBurn[wb.Window]) {
			t.Errorf("%s burn = %v, want %v", wb.Window, wb.BurnRate, wantBurn[wb.Window])
		}
		if wb.Samples != wantSamples[wb.Window] {
			t.Errorf("%s samples = %v, want %v", wb.Window, wb.Samples, wantSamples[wb.Window])
		}
	}
	if !or.Breached {
		t.Error("slow rule (slow 20.3 ≥ 5 AND mid 5.5 ≥ 5) should breach")
	}
	if or.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %v, want 0 (20x overspent, clamped)", or.BudgetRemaining)
	}
	if rep.Status != "degraded" {
		t.Errorf("report status = %q, want degraded", rep.Status)
	}

	// The fast rule must NOT have fired alone: recheck with thresholds
	// that only the fast pair could satisfy.
	h.eng.windows = Windows{
		Fast: 10 * time.Second, Mid: 60 * time.Second, Slow: 300 * time.Second,
		FastBurn: 10, SlowBurn: 1000,
	}
	if or := h.evaluate().Objectives[0]; or.Breached {
		t.Error("fast rule should not fire: fast burn 1 < 10")
	}
}

// TestBreachRecoverTransitions walks an objective into breach and back
// out, asserting the journaled transition events and healthz status.
func TestBreachRecoverTransitions(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindAvailability, Route: "*", Target: 99})
	h.eng.windows = Windows{
		Fast: 10 * time.Second, Mid: 10 * time.Second, Slow: 10 * time.Second,
		FastBurn: 10, SlowBurn: 10,
	}
	req := h.reg.Counter(ServeMetrics.RequestsTotal, "h", "route").With("/x")
	errs := h.reg.Counter(ServeMetrics.ErrorsTotal, "h", "route").With("/x")

	// Epoch 1: total failure -> burn 100.
	req.Add(10)
	errs.Add(10)
	h.sample()
	if got := h.evaluate().Status; got != "degraded" {
		t.Fatalf("status after failures = %q, want degraded", got)
	}
	if evs := h.journal.Events(0, events.TypeSLOBreach, time.Time{}); len(evs) != 1 {
		t.Fatalf("breach events = %d, want 1", len(evs))
	} else if evs[0].Attrs["slo"] != "availability:*" {
		t.Errorf("breach event attrs = %v, want slo=availability:*", evs[0].Attrs)
	}
	if evs := h.journal.Events(0, events.TypeDegraded, time.Time{}); len(evs) != 1 {
		t.Fatalf("degraded events = %d, want 1", len(evs))
	}
	// Re-evaluating in the same state must not re-journal the edge.
	h.evaluate()
	if evs := h.journal.Events(0, events.TypeSLOBreach, time.Time{}); len(evs) != 1 {
		t.Fatalf("breach events after re-eval = %d, want still 1", len(evs))
	}

	// Epoch 2: move past the window with clean traffic -> recovery.
	h.advance(30 * time.Second)
	req.Add(100)
	h.sample()
	if got := h.evaluate().Status; got != "ok" {
		t.Fatalf("status after recovery = %q, want ok", got)
	}
	if evs := h.journal.Events(0, events.TypeSLORecover, time.Time{}); len(evs) != 1 {
		t.Fatalf("recover events = %d, want 1", len(evs))
	}
	if evs := h.journal.Events(0, events.TypeRecovered, time.Time{}); len(evs) != 1 {
		t.Fatalf("recovered events = %d, want 1", len(evs))
	}
}

// TestLatencyObjectiveGoodBuckets: good = observations in buckets whose
// upper bound is at or under the threshold.
func TestLatencyObjectiveGoodBuckets(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindLatency, Route: "/v2/infer", Threshold: 100 * time.Millisecond, Target: 99})
	h.eng.windows = Windows{
		Fast: time.Minute, Mid: time.Minute, Slow: time.Minute,
		FastBurn: 5, SlowBurn: 5,
	}
	hist := h.reg.Histogram(ServeMetrics.LatencyHist, "h", []float64{0.1, 0.5}, "route").With("/v2/infer")
	// 9 fast, 1 slow -> bad fraction 0.1, burn 10 -> breach at threshold 5.
	for i := 0; i < 9; i++ {
		hist.Observe(0.05)
	}
	hist.Observe(0.3)
	h.sample()

	rep := h.evaluate()
	or := rep.Objectives[0]
	if !approx(or.Windows[0].ErrorFraction, 0.1) {
		t.Errorf("error fraction = %v, want 0.1", or.Windows[0].ErrorFraction)
	}
	if !or.Breached {
		t.Error("latency objective should breach: burn 10 ≥ 5")
	}
}

func TestQueueDepthObjective(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindQueueDepth, Depth: 64, Target: 50})
	h.eng.windows = Windows{
		Fast: time.Minute, Mid: time.Minute, Slow: time.Minute,
		FastBurn: 1.5, SlowBurn: 1.5,
	}
	g := h.reg.Gauge(ServeMetrics.QueueGauge, "h").With()
	// 3 of 4 samples above depth 64 -> frac 0.75, budget 0.5 -> burn 1.5.
	for _, v := range []float64{10, 100, 100, 100} {
		g.Set(v)
		h.sample()
		h.advance(time.Second)
	}
	or := h.evaluate().Objectives[0]
	if !approx(or.Windows[0].BurnRate, 1.5) {
		t.Errorf("queue burn = %v, want 1.5", or.Windows[0].BurnRate)
	}
	if !or.Breached {
		t.Error("queue objective should breach at burn 1.5 ≥ 1.5")
	}
}

// TestNoTrafficIsHealthy: zero samples must read as burn 0, not NaN or a
// division panic.
func TestNoTrafficIsHealthy(t *testing.T) {
	h := newHarness(t,
		Objective{Kind: KindAvailability, Route: "*", Target: 99.9},
		Objective{Kind: KindLatency, Route: "*", Threshold: time.Millisecond, Target: 99.9},
		Objective{Kind: KindQueueDepth, Depth: 1, Target: 99.9},
	)
	rep := h.evaluate()
	if rep.Status != "ok" {
		t.Fatalf("status with no traffic = %q, want ok", rep.Status)
	}
	for _, or := range rep.Objectives {
		for _, wb := range or.Windows {
			if wb.BurnRate != 0 || math.IsNaN(wb.BurnRate) {
				t.Errorf("%s %s burn = %v, want 0", or.Name, wb.Window, wb.BurnRate)
			}
		}
		if or.BudgetRemaining != 1 {
			t.Errorf("%s budget = %v, want 1", or.Name, or.BudgetRemaining)
		}
	}
}

func TestNilEngineIsOK(t *testing.T) {
	var e *Engine
	if e.Status() != "ok" {
		t.Error("nil engine must report ok")
	}
	if rep := e.evaluate(time.Now()); rep.Status != "ok" {
		t.Error("nil engine evaluate must report ok")
	}
}

// TestSLOGauges: the engine mirrors its verdicts onto sickle_slo_*.
func TestSLOGauges(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindAvailability, Route: "*", Target: 99})
	h.eng.windows = Windows{
		Fast: time.Minute, Mid: time.Minute, Slow: time.Minute,
		FastBurn: 10, SlowBurn: 10,
	}
	req := h.reg.Counter(ServeMetrics.RequestsTotal, "h", "route").With("/x")
	errs := h.reg.Counter(ServeMetrics.ErrorsTotal, "h", "route").With("/x")
	req.Add(10)
	errs.Add(10)
	h.sample()
	h.evaluate()

	text := h.reg.Render()
	for _, want := range []string{
		`sickle_slo_breached{slo="availability:*"} 1`,
		`sickle_slo_error_budget_remaining{slo="availability:*"} 0`,
		// 1/(1-0.99) in floats; asserting the prefix dodges the ulps.
		`sickle_slo_burn_rate{slo="availability:*",window="fast"} 99.99`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
}

// TestEvaluatesOncePerSample: a history sample alone evaluates — the
// breach is journalled, the gauges move and Status reports it with no
// reader having asked — and Status between two samples serves the kept
// report without querying the history.
func TestEvaluatesOncePerSample(t *testing.T) {
	h := newHarness(t, Objective{Kind: KindAvailability, Route: "*", Target: 99})
	h.eng.windows = Windows{
		Fast: 10 * time.Second, Mid: 10 * time.Second, Slow: 10 * time.Second,
		FastBurn: 10, SlowBurn: 10,
	}
	if got := h.eng.Status(); got != "ok" {
		t.Fatalf("status before the first sample = %q, want ok", got)
	}
	h.reg.Counter(ServeMetrics.RequestsTotal, "h", "route").With("/x").Add(10)
	h.reg.Counter(ServeMetrics.ErrorsTotal, "h", "route").With("/x").Add(10)
	h.sample()

	if evs := h.journal.Events(0, events.TypeSLOBreach, time.Time{}); len(evs) != 1 {
		t.Fatalf("breach events after one sample = %d, want 1", len(evs))
	}
	if evs := h.journal.Events(0, events.TypeDegraded, time.Time{}); len(evs) != 1 {
		t.Fatalf("degraded events after one sample = %d, want 1", len(evs))
	}
	if text := h.reg.Render(); !strings.Contains(text, `sickle_slo_breached{slo="availability:*"} 1`) {
		t.Error("sickle_slo_breached did not move with the sample")
	}
	if got := h.eng.Status(); got != "degraded" {
		t.Fatalf("status after the sample = %q, want degraded", got)
	}
	// A Query copies every matching series out of the store; serving the
	// kept report copies nothing.
	if allocs := testing.AllocsPerRun(100, func() { h.eng.Status() }); allocs != 0 {
		t.Fatalf("Status between samples allocated %v objects: it re-read the history", allocs)
	}
}
