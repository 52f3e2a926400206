// Package tsdb gives the observability stack a memory: a fixed-size ring
// time-series store that samples an obs.Registry on an interval, so the
// point-in-time /metrics scrape becomes a queryable history. Counters are
// stored as per-interval deltas (counter resets — a restarted process —
// are detected and absorbed), gauges as raw values, histograms as
// per-interval bucket snapshots with their trace-ID exemplars. The store
// is what the SLO burn-rate engine (internal/obs/slo) evaluates, and GET
// /debug/history serves it as JSON; the shard router scatter-gathers
// every replica's history into one fleet-wide view.
//
// The store reads no clock of its own: Sample stamps a pass with the time
// it is given (the sampler's tick), and Query clips to the cutoff it is
// handed. The store keeps no aggregation either: Window sums any window of
// the wire series, one store's or a whole fleet's.
package tsdb

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults when the caller passes zero values.
const (
	DefaultInterval = time.Second
	DefaultCapacity = 600 // points per series (10 min at 1s)
	maxSeries       = 2048
)

// Store samples a registry into bounded per-series rings. All methods are
// safe for concurrent use; a nil *Store no-ops its handlers and queries.
type Store struct {
	reg      *obs.Registry
	tier     string
	interval time.Duration
	capacity int

	mu     sync.RWMutex
	series map[string]*series
	order  []string
	after  func(at time.Time) // OnSample's hook

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// series is one metric stream: its ring of sampled points plus the raw
// cumulative values the next delta is computed against.
type series struct {
	name    string
	labels  map[string]string
	kind    string
	buckets []float64 // histogram upper bounds, +Inf excluded

	// last raw cumulative values, for delta computation across samples.
	primed      bool
	prevValue   float64
	prevBuckets []uint64
	prevCount   uint64
	prevSum     float64

	pts *obs.Ring[point]

	exemplars []string // latest bucket exemplars (histogram), +Inf last
}

// point is one sampled interval: a gauge's raw value, a counter's delta,
// or a histogram's per-bucket delta snapshot.
type point struct {
	t time.Time
	v float64 // gauge value / counter delta

	bucketDeltas []uint64 // histogram only, +Inf last
	countDelta   uint64
	sumDelta     float64
}

// NewStore builds a store sampling reg every interval, keeping capacity
// points per series. Zero values select the defaults. The tier label is
// echoed in the /debug/history payload.
func NewStore(tier string, reg *obs.Registry, interval time.Duration, capacity int) *Store {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		reg: reg, tier: tier, interval: interval, capacity: capacity,
		series: map[string]*series{},
		stop:   make(chan struct{}),
	}
}

// Interval returns the sampling period.
func (s *Store) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Start launches the background sampler (one pass immediately, then one
// per interval, stamped with the tick's time). Safe on nil.
func (s *Store) Start() {
	if s == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Sample(time.Now())
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case at := <-t.C:
				s.Sample(at)
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the sampler. Safe to call more than once, and on nil.
func (s *Store) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Sample runs one sampling pass over the registry, stamping its points
// with at, then hands at to the OnSample hook.
func (s *Store) Sample(at time.Time) {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	for i := range snap {
		s.ingestLocked(&snap[i], at)
	}
	s.mu.Unlock()
	if s.after != nil {
		s.after(at)
	}
}

// OnSample installs fn to run after every sampling pass, outside the lock
// (fn may Query), with the pass's time. Call it before Start. Safe on nil.
func (s *Store) OnSample(fn func(at time.Time)) {
	if s != nil {
		s.after = fn
	}
}

func seriesKey(sm *obs.Sample) string {
	if len(sm.LabelValues) == 0 {
		return sm.Name
	}
	return sm.Name + "\x00" + strings.Join(sm.LabelValues, "\x00")
}

func (s *Store) ingestLocked(sm *obs.Sample, t time.Time) {
	key := seriesKey(sm)
	sr, ok := s.series[key]
	if !ok {
		if len(s.series) >= maxSeries {
			return // bounded: new series beyond the cap are not tracked
		}
		labels := map[string]string{}
		for i, n := range sm.LabelNames {
			if i < len(sm.LabelValues) {
				labels[n] = sm.LabelValues[i]
			}
		}
		sr = &series{
			name: sm.Name, labels: labels, kind: sm.Kind, buckets: sm.Buckets,
			pts: obs.NewRing[point](s.capacity),
		}
		s.series[key] = sr
		s.order = append(s.order, key)
	}

	var p point
	p.t = t
	switch sm.Kind {
	case "gauge":
		p.v = sm.Value
	case "counter":
		p.v = counterDelta(sr.prevValue, sm.Value, sr.primed)
		sr.prevValue = sm.Value
	case "histogram":
		p.bucketDeltas = make([]uint64, len(sm.BucketCounts))
		reset := sr.primed && sm.Count < sr.prevCount
		for i, c := range sm.BucketCounts {
			prev := uint64(0)
			if sr.primed && !reset && i < len(sr.prevBuckets) {
				prev = sr.prevBuckets[i]
			}
			if c >= prev {
				p.bucketDeltas[i] = c - prev
			} else {
				p.bucketDeltas[i] = c
			}
		}
		if sr.primed && !reset {
			p.countDelta = sm.Count - sr.prevCount
			p.sumDelta = sm.Sum - sr.prevSum
		} else {
			p.countDelta = sm.Count
			p.sumDelta = sm.Sum
		}
		sr.prevBuckets = append(sr.prevBuckets[:0], sm.BucketCounts...)
		sr.prevCount = sm.Count
		sr.prevSum = sm.Sum
		sr.exemplars = sm.Exemplars
	}
	sr.primed = true
	sr.pts.Push(p)
}

// counterDelta absorbs resets: a cumulative value that went backwards
// means the process restarted, so the new value IS the increase since.
func counterDelta(prev, cur float64, primed bool) float64 {
	if !primed || cur < prev {
		return cur
	}
	return cur - prev
}

// matchName reports whether a family name matches a glob pattern: "*"
// matches everything, a trailing "*" matches the prefix, otherwise exact.
func matchName(pattern, name string) bool {
	if pattern == "*" || pattern == "" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == name
}

// Sum is one window of history, reduced by Window.
type Sum struct {
	Total float64   // counter deltas, added up
	Gauge []float64 // gauge samples, series by series, oldest first
	// Counts merges the histograms' bucket deltas per bucket (+Inf last)
	// under the first kept histogram's Buckets (+Inf excluded); Count adds
	// up their observations.
	Buckets     []float64
	Counts      []uint64
	Count       uint64
	First, Last float64 // unix seconds of the oldest and newest point kept; 0 when none
}

// Window reduces the points at or after since (unix seconds) of every
// series keep accepts (nil keeps all): counter deltas add up, gauge
// samples are gathered, histogram bucket deltas merge per bucket. It is
// the one rule the SLO engine applies to a store's Query and sickle-top to
// a fleet's /debug/history payload.
func Window(series []Series, since float64, keep func(*Series) bool) Sum {
	var s Sum
	in := func(t float64) bool {
		if t < since {
			return false
		}
		if s.First == 0 || t < s.First {
			s.First = t
		}
		s.Last = max(s.Last, t)
		return true
	}
	for i := range series {
		sr := &series[i]
		if keep != nil && !keep(sr) {
			continue
		}
		for _, p := range sr.Points {
			if !in(p.T) {
				continue
			}
			if sr.Kind == "gauge" {
				s.Gauge = append(s.Gauge, p.V)
			} else {
				s.Total += p.V
			}
		}
		for _, p := range sr.HistPoints {
			if !in(p.T) {
				continue
			}
			if s.Counts == nil {
				s.Buckets, s.Counts = sr.Buckets, make([]uint64, len(sr.Buckets)+1)
			}
			for i, c := range p.Counts {
				if i < len(s.Counts) {
					s.Counts[i] += c
				}
			}
			s.Count += p.Count
		}
	}
	return s
}
