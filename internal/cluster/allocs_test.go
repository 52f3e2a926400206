//go:build !race

package cluster

import (
	"math/rand"
	"testing"
)

// TestKMeans1DAllocs: clustering a scalar column with the caller's rng and
// labels buffer allocates the centroids, the seeding distances, the
// mini-batch counts and one labelling closure, whatever the column's
// length. (KMeans over Scalar1D rows allocated 30 objects and 230 KiB for
// these 4,096 points.) The file is left out of -race builds, where
// allocation counts are not meaningful.
func TestKMeans1DAllocs(t *testing.T) {
	gen := rand.New(rand.NewSource(4))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = gen.ExpFloat64()
	}
	rng, labels := rand.New(rand.NewSource(0)), make([]int, len(xs))
	cfg := Config{K: 20, Seed: 12345, BatchSize: 256, MaxIters: 60}
	got := testing.AllocsPerRun(20, func() {
		if _, err := KMeans1D(xs, cfg, rng, labels); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Fatalf("KMeans1D allocates %v objects, want <= 4", got)
	}
}
