package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("demo_requests_total", "Requests served.", "route")
	c.With("/v1/infer").Add(3)
	c.With("/healthz").Inc()
	g := reg.Gauge("demo_inflight", "In-flight requests.")
	g.With().Set(2)
	g.With().Add(-1)

	out := reg.Render()
	for _, want := range []string{
		"# HELP demo_requests_total Requests served.",
		"# TYPE demo_requests_total counter",
		`demo_requests_total{route="/healthz"} 1`,
		`demo_requests_total{route="/v1/infer"} 3`,
		"# TYPE demo_inflight gauge",
		"demo_inflight 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo_seconds", "Latency.", []float64{0.1, 1}, "route")
	h.With("a").Observe(0.05)
	h.With("a").Observe(0.5)
	h.With("a").Observe(5)

	out := reg.Render()
	for _, want := range []string{
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{route="a",le="0.1"} 1`,
		`demo_seconds_bucket{route="a",le="1"} 2`,
		`demo_seconds_bucket{route="a",le="+Inf"} 3`,
		`demo_seconds_sum{route="a"} 5.55`,
		`demo_seconds_count{route="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := h.With("a").Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

func TestIntegerValuesRenderBare(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_hits_total", "h").With().Add(1)
	out := reg.Render()
	// Exact-match consumers (tests, smoke.sh's awk) rely on integers rendering
	// without a decimal point.
	if !strings.Contains(out, "demo_hits_total 1\n") {
		t.Errorf("integer counter rendered oddly:\n%s", out)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("nil metric values should be zero")
	}
}

func TestFuncProbes(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("demo_live", "live", func() float64 { return 42 })
	reg.CounterFunc("demo_live_total", "live", func() float64 { return 7 })
	reg.GaugeMapFunc("demo_map", "map", "k", func() map[string]float64 {
		return map[string]float64{"b": 2, "a": 1}
	})
	out := reg.Render()
	for _, want := range []string{
		"demo_live 42", "demo_live_total 7",
		`demo_map{k="a"} 1`, `demo_map{k="b"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("demo_esc", "e", "v").With(`a"b\c` + "\n").Set(1)
	out := reg.Render()
	if !strings.Contains(out, `demo_esc{v="a\"b\\c\n"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	if errs := lintExposition(out); len(errs) != 0 {
		t.Errorf("escaped output fails lint: %v", errs)
	}
}

func TestLabelArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	NewRegistry().Counter("demo_total", "d", "a", "b").With("only-one")
}

// TestRegistryConcurrency hammers every mutator while rendering; run with
// -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("stress_total", "s", "w")
	g := reg.Gauge("stress_gauge", "s")
	h := reg.Histogram("stress_seconds", "s", nil, "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < 500; i++ {
				c.With(lbl).Inc()
				g.With().Add(1)
				h.With(lbl).Observe(float64(i) / 1000)
				if i%50 == 0 {
					_ = reg.Render()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += c.With(lbl).Value()
	}
	if total != 8*500 {
		t.Errorf("counter lost updates: %g", total)
	}
	if g.With().Value() != 8*500 {
		t.Errorf("gauge lost updates: %g", g.With().Value())
	}
	if errs := lintExposition(reg.Render()); len(errs) != 0 {
		t.Errorf("stressed registry fails lint: %v", errs)
	}
}

func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	out := reg.Render()
	for _, want := range []string{
		`sickle_build_info{go_version="go`,
		"sickle_process_start_time_seconds",
		"sickle_go_goroutines",
		"sickle_go_heap_alloc_bytes",
		"sickle_go_gc_pause_seconds_total",
		"sickle_tensor_pool_workers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
	if errs := lintExposition(out); len(errs) != 0 {
		t.Errorf("runtime metrics fail lint: %v", errs)
	}
}
