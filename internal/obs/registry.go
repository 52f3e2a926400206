package obs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default request-latency histogram bounds (seconds),
// spanning sub-millisecond micro-batch hits to multi-second pipeline runs.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// kind is a metric family's exposition TYPE.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text
// exposition (version 0.0.4) with # HELP and # TYPE lines. One Registry
// backs each server's /metrics endpoint; all mutators are safe for
// concurrent use with Render.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric with a fixed label schema and its children
// (one child per distinct label-value tuple).
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]child // key: joined label values
	order    []string

	// live probes (registered via the -Func variants) are read at render
	// time instead of being stored.
	fn    func() float64
	mapFn func() map[string]float64 // label value -> gauge value
}

type child interface{ value() float64 }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help string, k kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, kind: k, labels: labels, buckets: buckets,
		children: map[string]child{},
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) a counter family with the given label
// schema. Use With(values...) for a series handle; zero labels mean a
// single series.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or returns) an le-bucketed histogram family.
// buckets are upper bounds in increasing order, +Inf excluded (it is
// always appended). nil buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.family(name, help, kindHistogram, buckets, labels)}
}

// GaugeFunc registers a live unlabeled gauge read at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil).fn = fn
}

// CounterFunc registers a live unlabeled counter read at render time (the
// caller guarantees monotonicity).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindCounter, nil, nil).fn = fn
}

// GaugeMapFunc registers a live single-label gauge family whose series set
// is produced fresh at render time (label value -> gauge value).
func (r *Registry) GaugeMapFunc(name, help, label string, fn func() map[string]float64) {
	r.family(name, help, kindGauge, nil, []string{label}).mapFn = fn
}

// ---- series handles ----

// Counter is a monotonically increasing series. All methods are nil-safe
// no-ops so instrumentation can be optional without branches.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) value() float64 { return c.Value() }

// Gauge is a series that can go up and down. Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) value() float64 { return g.Value() }

// Histogram is an le-bucketed distribution. Nil-safe like Counter.
type Histogram struct {
	buckets   []float64
	counts    []atomic.Uint64 // one per bucket, +Inf last
	exemplars []atomic.Pointer[string]
	sumBits   atomic.Uint64
	n         atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
	h.n.Add(1)
}

// ObserveEx records one sample and attaches an exemplar (a trace ID) to
// the bucket it lands in, replacing any previous one. Exemplars never
// appear in the Prometheus text exposition — they surface only through
// Snapshot and the /debug/history JSON — so scrapers are unaffected.
func (h *Histogram) ObserveEx(v float64, exemplar string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	if exemplar != "" {
		h.exemplars[i].Store(&exemplar)
	}
	addFloat(&h.sumBits, v)
	h.n.Add(1)
}

// Sum returns the sum of observed samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observed samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

func (h *Histogram) value() float64 { return h.Sum() }

// addFloat is a lock-free float64 accumulate over atomic bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ---- vecs ----

// CounterVec is a counter family handle; With resolves one series.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (len must match the
// registered schema). Series are created on first use and cached.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.child(values, func() child { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family handle.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values, func() child { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family handle.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values, func() child {
		h := &Histogram{buckets: v.fam.buckets}
		h.counts = make([]atomic.Uint64, len(h.buckets)+1)
		h.exemplars = make([]atomic.Pointer[string], len(h.buckets)+1)
		return h
	}).(*Histogram)
}

func (f *family) child(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// ---- rendering ----

// Render produces the full text exposition, families sorted by name and
// series sorted by label values, so scrapes are deterministic.
func (r *Registry) Render() string {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	return b.String()
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, fmtVal(f.fn()))
		return
	}
	if f.mapFn != nil {
		m := f.mapFn()
		for _, k := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(b, "%s{%s=%s} %s\n", f.name, f.labels[0], quoteLabel(k), fmtVal(m[k]))
		}
		return
	}

	// Render series sorted by label tuple.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for _, i := range idx {
		values := strings.Split(keys[i], "\x00")
		if keys[i] == "" && len(f.labels) == 0 {
			values = nil
		}
		switch c := children[i].(type) {
		case *Histogram:
			f.renderHistogram(b, values, c)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtVal(c.value()))
		}
	}
}

func (f *family) renderHistogram(b *strings.Builder, values []string, h *Histogram) {
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, values, "le", fmtVal(ub)), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
		labelString(f.labels, values, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtVal(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), h.Count())
}

// labelString renders {k="v",...} with an optional extra label appended
// (the histogram le). Empty when there are no labels at all.
func labelString(names, values []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(quoteLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// quoteLabel escapes a label value per the exposition format.
func quoteLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return `"` + v + `"`
}

// fmtVal renders a sample value the way the old hand-rolled exporters did:
// integers without a decimal point, everything else in %g form.
func fmtVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- snapshots (the tsdb sampler's view) ----

// Sample is one series' instantaneous value as captured by Snapshot:
// counters and gauges carry Value; histograms carry cumulative per-bucket
// counts (+Inf last), the running Sum/Count, and any bucket exemplars
// (trace IDs, "" where none was attached).
type Sample struct {
	Name        string
	Kind        string // "counter" | "gauge" | "histogram"
	LabelNames  []string
	LabelValues []string

	Value float64 // counter/gauge

	Buckets      []float64 // histogram upper bounds, +Inf excluded
	BucketCounts []uint64  // per-bucket (non-cumulative), +Inf last
	Count        uint64
	Sum          float64
	Exemplars    []string // per bucket, aligned with BucketCounts
}

// Snapshot captures every series' current value, families sorted by name
// and series by label tuple — the deterministic input the history sampler
// (internal/obs/tsdb) consumes. Live -Func probes are evaluated.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	var out []Sample
	for _, f := range fams {
		if f.fn != nil {
			out = append(out, Sample{Name: f.name, Kind: f.kind.String(), Value: f.fn()})
			continue
		}
		if f.mapFn != nil {
			m := f.mapFn()
			for _, k := range slices.Sorted(maps.Keys(m)) {
				out = append(out, Sample{
					Name: f.name, Kind: f.kind.String(),
					LabelNames: f.labels, LabelValues: []string{k}, Value: m[k],
				})
			}
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		for _, i := range idx {
			values := strings.Split(keys[i], "\x00")
			if keys[i] == "" && len(f.labels) == 0 {
				values = nil
			}
			s := Sample{Name: f.name, Kind: f.kind.String(),
				LabelNames: f.labels, LabelValues: values}
			switch c := children[i].(type) {
			case *Histogram:
				s.Buckets = c.buckets
				s.BucketCounts = make([]uint64, len(c.counts))
				s.Exemplars = make([]string, len(c.counts))
				for bi := range c.counts {
					s.BucketCounts[bi] = c.counts[bi].Load()
					if ex := c.exemplars[bi].Load(); ex != nil {
						s.Exemplars[bi] = *ex
					}
				}
				s.Count = c.Count()
				s.Sum = c.Sum()
			default:
				s.Value = c.value()
			}
			out = append(out, s)
		}
	}
	return out
}
