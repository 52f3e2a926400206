package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// TestFeatureBoundsBitIdenticalSerialVsParallel pins featureBounds' pooled
// scan. At 64³ each variable's scan splits into 8 chunks, and the pooled
// bounds must equal the serial scan's bit for bit on each of 64 runs: an
// order dependence shows only on the runs whose chunks finish out of order.
// Every chunk of u holds a different minimum and maximum; v's minimum is
// zero, +0 in even chunks and −0 in odd ones, so the answer depends on
// which chunk is merged first unless the tie between them is broken the
// same way every time.
func TestFeatureBoundsBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	f := grid.NewField(64, 64, 64)
	rng := rand.New(rand.NewSource(3))
	u, v := make([]float64, f.NPoints()), make([]float64, f.NPoints())
	for i := range u {
		u[i], v[i] = rng.NormFloat64(), 1+rng.Float64()
	}
	chunk := len(v) / 8
	for c := range 8 {
		v[c*chunk+rng.Intn(chunk)] = math.Copysign(0, float64(c%2*-2+1))
	}
	f.AddVar("u", u)
	f.AddVar("v", v)
	vars := []string{"u", "v"}

	tensor.SetParallel(false)
	wantLo, wantHi := featureBounds(f, vars)
	tensor.SetParallel(true)
	for run := range 64 {
		lo, hi := featureBounds(f, vars)
		for j, name := range vars {
			if math.Float64bits(lo[j]) != math.Float64bits(wantLo[j]) || math.Float64bits(hi[j]) != math.Float64bits(wantHi[j]) {
				t.Fatalf("run %d: %s bounds [%v, %v] pooled, [%v, %v] serial", run, name, lo[j], hi[j], wantLo[j], wantHi[j])
			}
		}
	}
}
