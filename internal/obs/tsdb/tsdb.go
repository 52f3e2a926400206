// Package tsdb gives the observability stack a memory: a fixed-size ring
// time-series store that samples an obs.Registry on an interval, so the
// point-in-time /metrics scrape becomes a queryable history. Counters are
// stored as per-interval deltas (counter resets — a restarted process —
// are detected and absorbed), gauges as raw values, histograms as
// per-interval bucket snapshots with their trace-ID exemplars. The store
// is the substrate the SLO burn-rate engine (internal/obs/slo) evaluates
// over, and GET /debug/history serves it as JSON; the shard router
// scatter-gathers every replica's history into one fleet-wide view.
//
// The store reads no clock of its own: Sample stamps a pass with the time
// it is given (the sampler's tick), and each aggregation takes its cutoff
// as an argument, the way Query takes since.
package tsdb

import (
	"slices"
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
// with at.
func (s *Store) Sample(at time.Time) {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range snap {
		s.ingestLocked(&snap[i], at)
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

// matchLabels reports whether a series' labels satisfy a match map; a "*"
// (or missing) value matches any.
func matchLabels(match, labels map[string]string) bool {
	for k, want := range match {
		if want == "*" || want == "" {
			continue
		}
		if labels[k] != want {
			return false
		}
	}
	return true
}

// ---- aggregation (the SLO engine's substrate) ----

// scan is the one windowed walk the aggregations share: under the read
// lock it hands each series of the named family and kind whose labels
// satisfy match, with its points at or after since, to each.
func (s *Store) scan(name, kind string, match map[string]string, since time.Time, each func(sr *series, pts []point)) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sr := range s.series {
		if sr.name != name || sr.kind != kind || !matchLabels(match, sr.labels) {
			continue
		}
		each(sr, slices.DeleteFunc(sr.pts.Snapshot(), func(p point) bool { return p.t.Before(since) }))
	}
}

// SumCounter sums counter deltas since the cutoff across every series of
// the family matching the label constraints.
func (s *Store) SumCounter(name string, match map[string]string, since time.Time) float64 {
	total := 0.0
	s.scan(name, "counter", match, since, func(_ *series, pts []point) {
		for _, p := range pts {
			total += p.v
		}
	})
	return total
}

// HistWindow sums histogram bucket deltas since the cutoff across
// matching series. Returns the bucket bounds (+Inf excluded; nil when no
// series matched), summed per-bucket counts (+Inf last), and the summed
// count and sum.
func (s *Store) HistWindow(name string, match map[string]string, since time.Time) (buckets []float64, counts []uint64, count uint64, sum float64) {
	s.scan(name, "histogram", match, since, func(sr *series, pts []point) {
		if buckets == nil {
			buckets = sr.buckets
			counts = make([]uint64, len(sr.buckets)+1)
		}
		for _, p := range pts {
			for i, d := range p.bucketDeltas {
				if i < len(counts) {
					counts[i] += d
				}
			}
			count += p.countDelta
			sum += p.sumDelta
		}
	})
	return buckets, counts, count, sum
}

// GaugeAbove counts sampled points above the threshold (and the total
// sampled points) since the cutoff across matching gauge series.
func (s *Store) GaugeAbove(name string, match map[string]string, since time.Time, threshold float64) (above, total int) {
	s.scan(name, "gauge", match, since, func(_ *series, pts []point) {
		total += len(pts)
		for _, p := range pts {
			if p.v > threshold {
				above++
			}
		}
	})
	return above, total
}
