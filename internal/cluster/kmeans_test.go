package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs generates n points around three well-separated 2-D centers.
func threeBlobs(n int, seed int64) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%3]
		pts[i] = []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5}
	}
	return pts, centers
}

func TestKMeansRecoverBlobs(t *testing.T) {
	pts, centers := threeBlobs(300, 1)
	res, err := KMeans(pts, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Each true center must be within 1.0 of some fitted centroid.
	for _, c := range centers {
		best := math.MaxFloat64
		for _, f := range res.Centroids {
			if d := sqDist(c, f); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Fatalf("center %v not recovered (nearest centroid dist² %v)", c, best)
		}
	}
	if len(res.Labels) != len(pts) {
		t.Fatalf("labels len %d", len(res.Labels))
	}
}

func TestMiniBatchKMeansRecoverBlobs(t *testing.T) {
	pts, centers := threeBlobs(3000, 2)
	res, err := KMeans(pts, Config{K: 3, Seed: 7, BatchSize: 100, MaxIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range centers {
		best := math.MaxFloat64
		for _, f := range res.Centroids {
			if d := sqDist(c, f); d < best {
				best = d
			}
		}
		if best > 2.0 {
			t.Fatalf("minibatch: center %v not recovered (dist² %v)", c, best)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 2}); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := KMeans([][]float64{{1}}, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, Config{K: 1}); err == nil {
		t.Fatal("expected error for ragged points")
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	pts := [][]float64{{0}, {1}}
	res, err := KMeans(pts, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("K should clamp to n, got %d centroids", len(res.Centroids))
	}
}

func TestKMeansDeterministicUnderSeed(t *testing.T) {
	pts, _ := threeBlobs(200, 3)
	a, _ := KMeans(pts, Config{K: 3, Seed: 42})
	b, _ := KMeans(pts, Config{K: 3, Seed: 42})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
}

// Property: every label is valid and inertia is non-negative and equals the
// recomputed sum of squared distances.
func TestKMeansInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(50)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		k := 1 + rng.Intn(5)
		res, err := KMeans(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		inertia := 0.0
		for i, p := range pts {
			if res.Labels[i] < 0 || res.Labels[i] >= len(res.Centroids) {
				return false
			}
			// Label must be the argmin centroid.
			j, d := nearestRef(p, res.Centroids)
			if j != res.Labels[i] && math.Abs(d-sqDist(p, res.Centroids[res.Labels[i]])) > 1e-12 {
				return false
			}
			inertia += sqDist(p, res.Centroids[res.Labels[i]])
		}
		return math.Abs(inertia-res.Inertia) < 1e-9 && res.Inertia >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignAndSizes(t *testing.T) {
	xs := []float64{1, 9, 11, -1}
	want := []int{0, 1, 1, 0}
	// Against fixed centroids: the labelling Nearest gives each point.
	for i, x := range xs {
		if j := Nearest([]float64{x}, []float64{0, 10}); j != want[i] {
			t.Fatalf("point %v labelled %d, want %d", x, j, want[i])
		}
	}
	// Through KMeans1D: the same partition, whichever order it finds the
	// two centroids in.
	labels := make([]int, len(xs))
	cents, err := KMeans1D(xs, Config{K: 2, Seed: 1}, rand.New(rand.NewSource(0)), labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 2 || math.Abs(cents[labels[0]]) > 1e-12 || math.Abs(cents[labels[1]]-10) > 1e-12 {
		t.Fatalf("centroids %v, labels %v", cents, labels)
	}
	sizes := make([]int, 2)
	for i, l := range labels {
		if l != labels[0] && want[i] == 0 || l == labels[0] && want[i] == 1 {
			t.Fatalf("labels = %v, want the partition of %v", labels, want)
		}
		sizes[l]++
	}
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestScalar1D(t *testing.T) {
	xs := []float64{1, 2, 3}
	pts := Scalar1D(xs)
	if len(pts) != 3 || len(pts[0]) != 1 || pts[2][0] != 3 {
		t.Fatalf("Scalar1D = %v", pts)
	}
	pts[0][0] = 99
	if xs[0] != 1 {
		t.Fatal("Scalar1D must copy, not alias")
	}
}

func BenchmarkKMeans1000x3(b *testing.B) {
	pts, _ := threeBlobs(1000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, Config{K: 3, Seed: 1, MaxIters: 20})
	}
}

func BenchmarkMiniBatchKMeans10000x5(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 10000)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, Config{K: 5, Seed: 1, BatchSize: 256, MaxIters: 50})
	}
}

var nearestSink int

// BenchmarkNearest scans 20 centroids, MaxEnt's count, for a fresh point
// per iteration from a 2 MiB pool of normals, at d = 1 and d = 3. The
// points must be fresh: on a point repeated every iteration the branch
// predictor learns which centroid wins and hides the mispredictions a
// branchy scan pays on real data (a repeated input read a branchy ReLU at
// 0.3 ns per element against 3.7 ns inside a training run).
func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pool := make([]float64, 1<<18)
	for i := range pool {
		pool[i] = rng.NormFloat64()
	}
	for _, d := range []int{1, 3} {
		cents := pool[:20*d]
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off := i * d % (len(pool) - d)
				nearestSink = Nearest(pool[off:off+d], cents)
			}
		})
	}
}
