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
	children map[string]any // key: joined label values; *Counter, *Gauge or *Histogram

	// live probes (registered via the -Func variants) are read at render
	// time instead of being stored.
	fn    func() float64
	mapFn func() map[string]float64 // label value -> gauge value
}

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
		children: map[string]any{},
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

// Histogram is an le-bucketed distribution. Nil-safe like Counter.
type Histogram struct {
	buckets   []float64
	counts    []atomic.Uint64 // one per bucket, +Inf last
	exemplars []atomic.Pointer[string]
	sumBits   atomic.Uint64
	n         atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveEx(v, "") }

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
		ex := exemplar // escapes here only: storing &exemplar would heap-move every call's argument
		h.exemplars[i].Store(&ex)
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
	return v.fam.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family handle.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family handle.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values, func() any {
		h := &Histogram{buckets: v.fam.buckets}
		h.counts = make([]atomic.Uint64, len(h.buckets)+1)
		h.exemplars = make([]atomic.Pointer[string], len(h.buckets)+1)
		return h
	}).(*Histogram)
}

func (f *family) child(values []string, mk func() any) any {
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
	}
	return c
}

// ---- snapshots and rendering ----

// Sample is one series' instantaneous value as captured by Snapshot:
// counters and gauges carry Value; histograms carry per-bucket counts
// (+Inf last), the running Sum/Count, and any bucket exemplars (trace IDs,
// "" where none was attached).
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
	_, samples := r.snapshot()
	return samples
}

// snapshot is the one walk over the registry: the families sorted by name
// and, in the same order, every series they hold.
func (r *Registry) snapshot() ([]*family, []Sample) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	type series struct {
		key string
		c   any
	}
	var out []Sample
	for _, f := range fams {
		s := Sample{Name: f.name, Kind: f.kind.String(), LabelNames: f.labels}
		if f.fn != nil {
			s.Value = f.fn()
			out = append(out, s)
			continue
		}
		if f.mapFn != nil {
			m := f.mapFn()
			for _, k := range slices.Sorted(maps.Keys(m)) {
				s.LabelValues, s.Value = []string{k}, m[k]
				out = append(out, s)
			}
			continue
		}
		f.mu.Lock()
		all := make([]series, 0, len(f.children))
		for k, c := range f.children {
			all = append(all, series{k, c})
		}
		f.mu.Unlock()
		slices.SortFunc(all, func(a, b series) int { return strings.Compare(a.key, b.key) })
		for _, sc := range all {
			if len(f.labels) > 0 {
				s.LabelValues = strings.Split(sc.key, "\x00")
			}
			switch c := sc.c.(type) {
			case *Counter:
				s.Value = c.Value()
			case *Gauge:
				s.Value = c.Value()
			case *Histogram:
				s.Buckets = c.buckets
				s.BucketCounts = make([]uint64, len(c.counts))
				s.Exemplars = make([]string, len(c.counts))
				for i := range c.counts {
					s.BucketCounts[i] = c.counts[i].Load()
					if ex := c.exemplars[i].Load(); ex != nil {
						s.Exemplars[i] = *ex
					}
				}
				s.Count, s.Sum = c.Count(), c.Sum()
			}
			out = append(out, s)
		}
	}
	return fams, out
}

// Render produces the full text exposition of one snapshot: every family
// sorted by name with its # HELP and # TYPE lines (whether or not it has
// series yet), then its series sorted by label values, histograms as
// cumulative le buckets — so scrapes are deterministic.
func (r *Registry) Render() string {
	fams, samples := r.snapshot()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for ; len(samples) > 0 && samples[0].Name == f.name; samples = samples[1:] {
			s := &samples[0]
			labels := labelString(s.LabelNames, s.LabelValues, "", "")
			if f.kind != kindHistogram {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, fmtVal(s.Value))
				continue
			}
			cum := uint64(0)
			for i, n := range s.BucketCounts {
				le := "+Inf"
				if i < len(s.Buckets) {
					le = fmtVal(s.Buckets[i])
				}
				cum += n
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(s.LabelNames, s.LabelValues, "le", le), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, fmtVal(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, s.Count)
		}
	}
	return b.String()
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
