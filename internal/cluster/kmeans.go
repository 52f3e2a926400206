// Package cluster implements k-means clustering (full Lloyd iterations with
// k-means++ seeding, plus a MiniBatchKMeans variant) used by SICKLE's MaxEnt
// sampler to discretise the cluster variable before entropy computation.
// The paper uses scikit-learn's MiniBatchKMeans for the same role. One core
// runs on n×d row-major points: KMeans copies its rows into one slab,
// KMeans1D hands a scalar column over as it is; both give the same
// centroids and labels bit for bit, ties going to the lower index.
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

// KMeans runs Lloyd's algorithm with k-means++ seeding on pts (n points,
// each of equal dimension). When cfg.BatchSize > 0 it uses mini-batch
// updates (Sculley 2010), which is what makes clustering tractable on
// hypercube-sized point sets.
func KMeans(pts [][]float64, cfg Config) (*Result, error) {
	if len(pts) == 0 || len(pts[0]) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	n, d := len(pts), len(pts[0])
	xs := make([]float64, 0, n*d)
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), d)
		}
		xs = append(xs, p...)
	}
	cents, err := fit(xs, d, cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	// Final full assignment (parallel), inertia summed in point order.
	res := &Result{Centroids: make([][]float64, len(cents)/d), Labels: make([]int, n)}
	assign(xs, d, cents, res.Labels)
	for i, j := range res.Labels {
		dd := sqDist(xs[i*d:(i+1)*d], cents[j*d:(j+1)*d])
		if !(dd < math.MaxFloat64) { // NaN or overflow: count the scan's start
			dd = math.MaxFloat64
		}
		res.Inertia += dd
	}
	for j := range res.Centroids {
		res.Centroids[j] = cents[j*d : (j+1)*d : (j+1)*d]
	}
	return res, nil
}

// KMeans1D clusters the scalars xs exactly as KMeans clusters the 1-D
// points {xs[i]}, without wrapping or copying them, and returns the k
// centroids. It re-seeds rng with cfg.Seed and draws from it, so a caller
// that clusters over and over keeps one source. labels, when non-nil,
// receives each point's nearest centroid (len(xs) entries).
func KMeans1D(xs []float64, cfg Config, rng *rand.Rand, labels []int) ([]float64, error) {
	cents, err := fit(xs, 1, cfg, rng)
	if err == nil && labels != nil {
		assign(xs, 1, cents, labels)
	}
	return cents, err
}

// fit is the k-means core every entry point runs over the n = len(xs)/d
// points of xs: k-means++ seeding, then mini-batch updates when
// cfg.BatchSize is below n and Lloyd iterations otherwise. It returns the
// k×d centroids, row-major.
func fit(xs []float64, d int, cfg Config, rng *rand.Rand) ([]float64, error) {
	n := len(xs) / d
	if n == 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: need points and a positive K, got %d points, K = %d", n, cfg.K)
	}
	cfg.defaults(n)
	rng.Seed(cfg.Seed)
	cents := seedPlusPlus(xs, d, cfg.K, rng)
	if cfg.BatchSize > 0 && cfg.BatchSize < n {
		miniBatch(xs, d, cents, cfg, rng)
	} else {
		lloyd(xs, d, cents, cfg)
	}
	return cents, nil
}

// seedPlusPlus chooses k initial centroids with the k-means++ strategy:
// each new centroid is drawn with probability proportional to its squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(xs []float64, d, k int, rng *rand.Rand) []float64 {
	n := len(xs) / d
	first := rng.Intn(n)
	cents := append(make([]float64, 0, k*d), xs[first*d:(first+1)*d]...)
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(xs[i*d:(i+1)*d], cents)
	}
	for len(cents) < k*d {
		total := 0.0
		for _, dd := range d2 {
			total += dd
		}
		idx := n - 1
		if total <= 0 {
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, dd := range d2 {
				acc += dd
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := xs[idx*d : (idx+1)*d]
		cents = append(cents, c...)
		for i, cur := range d2 {
			// A select (see Nearest) on the float compare: a NaN stays.
			dd, take := sqDist(xs[i*d:(i+1)*d], c), uint64(0)
			if dd < cur {
				take = ^uint64(0)
			}
			d2[i] = math.Float64frombits(math.Float64bits(dd)&take | math.Float64bits(cur)&^take)
		}
	}
	return cents
}

// Nearest returns the index of the centroid nearest to p, the lowest index
// among equally near ones. cents holds the centroids row-major, len(p)
// values each.
// The running best is a select (CMOV), not a branch, on purpose: the winner
// follows the data. Comparing the squares' bits is exact: a square is never
// negative nor −0, and NaN and +Inf bits sort above MaxFloat64's.
func Nearest(p, cents []float64) int {
	best, bestB := 0, math.Float64bits(math.MaxFloat64)
	if len(p) == 1 { // the scalar cluster variable: no row slicing
		for j, c := range cents {
			if b := math.Float64bits((p[0] - c) * (p[0] - c)); b < bestB {
				best, bestB = j, b
			}
		}
		return best
	}
	for j, d, k := 0, len(p), len(cents)/len(p); j < k; j++ {
		if b := math.Float64bits(sqDist(p, cents[j*d:(j+1)*d])); b < bestB {
			best, bestB = j, b
		}
	}
	return best
}

// assign labels every point with its nearest centroid across the kernel
// pool. Each point's label is independent, so the fan-out is bit-identical
// to a serial loop; callers that accumulate (centroid sums, inertia) do so
// serially in point order afterwards, which keeps the whole algorithm
// deterministic.
func assign(xs []float64, d int, cents []float64, labels []int) {
	tensor.DefaultPool().ParallelFor(len(labels), len(labels)*len(cents), func(lo, hi int) { // n·k·d terms
		for i := lo; i < hi; i++ {
			labels[i] = Nearest(xs[i*d:(i+1)*d], cents)
		}
	})
}

func lloyd(xs []float64, d int, cents []float64, cfg Config) {
	n, k := len(xs)/d, len(cents)/d
	sums := make([]float64, k*d)
	counts := make([]int, k)
	labels := make([]int, n)
	for it := 0; it < cfg.MaxIters; it++ {
		clear(sums)
		clear(counts)
		// Assignment is the O(n·k·d) hot phase — parallel; the centroid
		// sums accumulate serially in point order (deterministic).
		assign(xs, d, cents, labels)
		for i, j := range labels {
			counts[j]++
			for x, v := range xs[i*d : (i+1)*d] {
				sums[j*d+x] += v
			}
		}
		shift := 0.0
		for j, c := range counts {
			if c == 0 {
				continue // keep empty centroid where it is
			}
			inv := 1 / float64(c)
			for x := j * d; x < (j+1)*d; x++ {
				nv := sums[x] * inv
				dd := nv - cents[x]
				shift += dd * dd
				cents[x] = nv
			}
		}
		if shift < tol*tol {
			return
		}
	}
}

// miniBatch performs per-sample centroid updates with a per-centroid
// learning rate 1/count, following the MiniBatchKMeans algorithm.
func miniBatch(xs []float64, d int, cents []float64, cfg Config, rng *rand.Rand) {
	n := len(xs) / d
	counts := make([]int, len(cents)/d)
	for it := 0; it < cfg.MaxIters; it++ {
		shift := 0.0
		for b := 0; b < cfg.BatchSize; b++ {
			p := xs[d*rng.Intn(n):][:d]
			j := Nearest(p, cents)
			counts[j]++
			eta := 1 / float64(counts[j])
			c := cents[j*d : (j+1)*d]
			for x := range c {
				dd := eta * (p[x] - c[x])
				c[x] += dd
				shift += dd * dd
			}
		}
		if shift < tol*tol {
			return
		}
	}
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
