// Package stats provides the statistical machinery SICKLE's sampling methods
// are built on: histograms and multi-dimensional binned PDFs, kernel density
// estimates, Shannon entropy, Kullback-Leibler divergence, and distribution
// moments. All estimators operate on plain []float64 / point slices so they
// can run directly over field data without copies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments holds the first four standardized moments of a sample.
type Moments struct {
	Mean     float64
	Variance float64
	Skewness float64
	Kurtosis float64 // excess kurtosis (0 for a Gaussian)
}

// ComputeMoments returns mean, variance (population), skewness and excess
// kurtosis of xs. It returns zeros for fewer than two samples.
func ComputeMoments(xs []float64) Moments {
	n := float64(len(xs))
	if len(xs) < 2 {
		var m Moments
		if len(xs) == 1 {
			m.Mean = xs[0]
		}
		return m
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	out := Moments{Mean: mean, Variance: m2}
	if m2 > 0 {
		s := math.Sqrt(m2)
		out.Skewness = m3 / (s * s * s)
		out.Kurtosis = m4/(m2*m2) - 3
	}
	return out
}

// Histogram is a fixed-width 1-D histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int // total samples, including clipped ones
}

// NewHistogram builds a histogram with the given number of bins over
// [lo, hi). Values outside the range are clamped to the edge bins, so
// total mass is conserved.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram needs >=1 bin, got %d", bins))
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("stats: histogram range [%v,%v) is empty", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// HistogramFromData builds a histogram spanning the observed data range.
// A tiny padding keeps the max value inside the last bin.
func HistogramFromData(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		return NewHistogram(0, 1, bins)
	}
	lo, hi := MinMax(xs)
	if hi == lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 1e-9
	h := NewHistogram(lo, hi+pad, bins)
	h.AddAll(xs)
	return h
}

// BinIndex returns the bin x falls into, clamped to [0, bins-1].
func (h *Histogram) BinIndex(x float64) int {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.BinIndex(x)]++
	h.N++
}

// AddAll records a batch of observations.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// PDF returns the normalized probability mass per bin (sums to 1).
func (h *Histogram) PDF() []float64 {
	p := make([]float64, len(h.Counts))
	if h.N == 0 {
		return p
	}
	inv := 1 / float64(h.N)
	for i, c := range h.Counts {
		p[i] = float64(c) * inv
	}
	return p
}

// Entropy returns the Shannon entropy (nats) of a discrete distribution p.
// Zero-probability bins contribute nothing. p need not be normalized; it is
// normalized internally.
func Entropy(p []float64) float64 {
	total := 0.0
	for _, v := range p {
		if v < 0 {
			panic("stats: negative probability mass")
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, v := range p {
		if v > 0 {
			q := v / total
			h -= q * math.Log(q)
		}
	}
	return h
}

// klFloor regularises zero bins in KL computations so that the divergence
// stays finite on empirical histograms, mirroring the epsilon smoothing in
// the reference implementation.
const klFloor = 1e-12

// KLDivergence returns D(p||q) = Σ p log(p/q) in nats. Inputs are
// normalized internally and zero bins are floored at klFloor.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: KL length mismatch %d vs %d", len(p), len(q)))
	}
	sp, sq := 0.0, 0.0
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			panic("stats: negative probability mass")
		}
		sp += p[i]
		sq += q[i]
	}
	if sp == 0 || sq == 0 {
		return 0
	}
	d := 0.0
	for i := range p {
		pi := p[i] / sp
		if pi <= 0 {
			continue
		}
		qi := q[i] / sq
		if qi < klFloor {
			qi = klFloor
		}
		d += pi * math.Log(pi/qi)
	}
	if d < 0 {
		// Numerical noise from the floor can push a tiny bit below zero.
		d = 0
	}
	return d
}

// JensenShannon returns the Jensen-Shannon divergence between p and q,
// a bounded symmetric alternative to KL used for snapshot novelty scoring.
func JensenShannon(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: JS length mismatch")
	}
	m := make([]float64, len(p))
	sp, sq := 0.0, 0.0
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	if sp == 0 || sq == 0 {
		return 0
	}
	for i := range p {
		m[i] = 0.5*(p[i]/sp) + 0.5*(q[i]/sq)
	}
	return 0.5*KLDivergence(p, m) + 0.5*KLDivergence(q, m)
}

// Quantile returns the q-th quantile (0<=q<=1) of xs using linear
// interpolation. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// TailCoverage measures what fraction of the extreme tails of the reference
// sample ref (beyond the lo and hi quantiles) is covered by the sampled
// subset: it returns the ratio of the subset's tail mass to the reference
// tail mass (1.0 = tails represented proportionally; <1 under-sampled).
// This is the scalar summary used for the paper's Fig. 5 comparison.
func TailCoverage(ref, sample []float64, tailFrac float64) float64 {
	if len(ref) == 0 || len(sample) == 0 || tailFrac <= 0 {
		return 0
	}
	lo := Quantile(ref, tailFrac)
	hi := Quantile(ref, 1-tailFrac)
	refTail := 0
	for _, x := range ref {
		if x < lo || x > hi {
			refTail++
		}
	}
	smpTail := 0
	for _, x := range sample {
		if x < lo || x > hi {
			smpTail++
		}
	}
	refFrac := float64(refTail) / float64(len(ref))
	smpFrac := float64(smpTail) / float64(len(sample))
	if refFrac == 0 {
		return 1
	}
	return smpFrac / refFrac
}

// NormalizeColumns rescales each feature column of pts (n×d, row-major
// points) to [0,1] in place and returns the per-column (min, max) used.
// Constant columns map to 0.
func NormalizeColumns(pts [][]float64) (mins, maxs []float64) {
	if len(pts) == 0 {
		return nil, nil
	}
	mins, maxs = ColumnBounds(pts, nil, nil)
	for _, p := range pts {
		for j, v := range p {
			p[j] = UnitScale(v, mins[j], maxs[j])
		}
	}
	return mins, maxs
}

// MinMax returns the smallest and largest of xs (non-empty) under < and >,
// so of equal values, ±0 included, the first seen is kept.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ColumnBounds returns the per-column min and max of pts (n×d, non-empty)
// in mins and maxs, whose capacity it reuses.
func ColumnBounds(pts [][]float64, mins, maxs []float64) ([]float64, []float64) {
	mins = append(mins[:0], pts[0]...)
	maxs = append(maxs[:0], pts[0]...)
	for _, p := range pts {
		for j, v := range p {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return mins, maxs
}

// UnitScale maps v into [0, 1] by its column's bounds lo and hi, or to 0
// when the column is constant.
func UnitScale(v, lo, hi float64) float64 {
	if r := hi - lo; r > 0 {
		return (v - lo) / r
	}
	return 0
}
