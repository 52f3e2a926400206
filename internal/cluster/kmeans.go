// Package cluster implements k-means clustering (full Lloyd iterations with
// k-means++ seeding, plus a MiniBatchKMeans variant) used by SICKLE's MaxEnt
// sampler to discretise the cluster variable before entropy computation.
// The paper uses scikit-learn's MiniBatchKMeans for the same role.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Result holds a fitted clustering.
type Result struct {
	Centroids [][]float64 // k × d
	Labels    []int       // per input point
	Inertia   float64     // sum of squared distances to assigned centroid
}

// Config controls the clustering run.
type Config struct {
	K         int
	MaxIters  int // default 100
	BatchSize int // >0 enables mini-batch updates
	Seed      int64
}

// tol is the centroid-shift convergence tolerance: an iteration that moves
// the centroids by less than tol (summed squared shift under tol²) is the
// last.
const tol float64 = 1e-6

func (c *Config) defaults(n int) {
	if c.MaxIters <= 0 {
		c.MaxIters = 100
	}
	if c.K > n {
		c.K = n
	}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// seedPlusPlus chooses k initial centroids with the k-means++ strategy:
// each new centroid is drawn with probability proportional to its squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(pts [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(pts)
	cents := make([][]float64, 0, k)
	first := pts[rng.Intn(n)]
	cents = append(cents, append([]float64(nil), first...))
	d2 := make([]float64, n)
	for i, p := range pts {
		d2[i] = sqDist(p, cents[0])
	}
	for len(cents) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var chosen []float64
		if total <= 0 {
			chosen = pts[rng.Intn(n)]
		} else {
			r := rng.Float64() * total
			idx := n - 1
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
			chosen = pts[idx]
		}
		c := append([]float64(nil), chosen...)
		cents = append(cents, c)
		for i, p := range pts {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cents
}

func nearest(p []float64, cents [][]float64) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for j, c := range cents {
		if d := sqDist(p, c); d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

// assignAll computes the nearest centroid (and its squared distance) for
// every point across the kernel pool. Each point's result is independent,
// so the fan-out is bit-identical to a serial loop; callers that accumulate
// (centroid sums, inertia) do so serially in point order afterwards, which
// keeps the whole algorithm deterministic.
func assignAll(pts [][]float64, cents [][]float64, labels []int, d2 []float64) {
	tensor.DefaultPool().ParallelFor(len(pts), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j, dd := nearest(pts[i], cents)
			labels[i] = j
			if d2 != nil {
				d2[i] = dd
			}
		}
	})
}

// KMeans runs Lloyd's algorithm with k-means++ seeding on pts (n points,
// each of equal dimension). When cfg.BatchSize > 0 it uses mini-batch
// updates (Sculley 2010), which is what makes clustering tractable on
// hypercube-sized point sets.
func KMeans(pts [][]float64, cfg Config) (*Result, error) {
	n := len(pts)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: K must be positive, got %d", cfg.K)
	}
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), d)
		}
	}
	cfg.defaults(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	cents := seedPlusPlus(pts, cfg.K, rng)

	if cfg.BatchSize > 0 && cfg.BatchSize < n {
		miniBatch(pts, cents, cfg, rng)
	} else {
		lloyd(pts, cents, cfg)
	}

	// Final full assignment (parallel), inertia summed in point order.
	labels := make([]int, n)
	d2 := make([]float64, n)
	assignAll(pts, cents, labels, d2)
	inertia := 0.0
	for _, dd := range d2 {
		inertia += dd
	}
	return &Result{Centroids: cents, Labels: labels, Inertia: inertia}, nil
}

func lloyd(pts [][]float64, cents [][]float64, cfg Config) {
	n, k, d := len(pts), len(cents), len(pts[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for j := range sums {
		sums[j] = make([]float64, d)
	}
	labels := make([]int, n)
	for it := 0; it < cfg.MaxIters; it++ {
		for j := range sums {
			counts[j] = 0
			for x := range sums[j] {
				sums[j][x] = 0
			}
		}
		// Assignment is the O(n·k·d) hot phase — parallel; the centroid
		// sums accumulate serially in point order (deterministic).
		assignAll(pts, cents, labels, nil)
		for i := 0; i < n; i++ {
			j := labels[i]
			counts[j]++
			for x, v := range pts[i] {
				sums[j][x] += v
			}
		}
		shift := 0.0
		for j := range cents {
			if counts[j] == 0 {
				continue // keep empty centroid where it is
			}
			inv := 1 / float64(counts[j])
			for x := range cents[j] {
				nv := sums[j][x] * inv
				dd := nv - cents[j][x]
				shift += dd * dd
				cents[j][x] = nv
			}
		}
		if shift < tol*tol {
			return
		}
	}
}

// miniBatch performs per-sample centroid updates with a per-centroid
// learning rate 1/count, following the MiniBatchKMeans algorithm.
func miniBatch(pts [][]float64, cents [][]float64, cfg Config, rng *rand.Rand) {
	n := len(pts)
	counts := make([]int, len(cents))
	for it := 0; it < cfg.MaxIters; it++ {
		shift := 0.0
		for b := 0; b < cfg.BatchSize; b++ {
			p := pts[rng.Intn(n)]
			j, _ := nearest(p, cents)
			counts[j]++
			eta := 1 / float64(counts[j])
			for x := range cents[j] {
				dd := eta * (p[x] - cents[j][x])
				cents[j][x] += dd
				shift += dd * dd
			}
		}
		if shift < tol*tol {
			return
		}
	}
}

// Assign returns the index of the nearest centroid for each point,
// computed across the kernel pool.
func Assign(pts [][]float64, cents [][]float64) []int {
	labels := make([]int, len(pts))
	assignAll(pts, cents, labels, nil)
	return labels
}

// Scalar1D is a convenience for clustering a single scalar variable (the
// common KCV case in Table 1): it wraps xs as 1-D points.
func Scalar1D(xs []float64) [][]float64 {
	pts := make([][]float64, len(xs))
	backing := make([]float64, len(xs))
	copy(backing, xs)
	for i := range xs {
		pts[i] = backing[i : i+1 : i+1]
	}
	return pts
}
