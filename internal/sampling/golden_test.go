package sampling

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// hashCubeSamples folds every field of a selection — identity, indices and
// the exact float bits of features and targets — into one FNV-64a value.
func hashCubeSamples(cubes []CubeSample) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range cubes {
		cs := &cubes[i]
		c := cs.Cube
		for _, v := range []int{cs.Snapshot, c.I0, c.J0, c.K0, c.Sx, c.Sy, c.Sz, c.ID, len(cs.LocalIdx)} {
			put(uint64(v))
		}
		for _, li := range cs.LocalIdx {
			put(uint64(li))
		}
		for _, rows := range [][][]float64{cs.Features, cs.Targets} {
			for _, row := range rows {
				for _, x := range row {
					put(math.Float64bits(x))
				}
			}
		}
	}
	return h.Sum64()
}

// TestGoldenOfflineSelection pins the offline pipeline's output for every
// rng-driven sampler to the values the pre-scratch implementation (full
// sort, per-cube makes, per-point Field.Point) produced: any change to the
// order of rng draws, the tie rule of the weighted draw, or the gathered
// values moves a hash. The config names only CubeSx, so the shared
// cube-edge default is exercised too.
func TestGoldenOfflineSelection(t *testing.T) {
	d := smallSST(t, 2)
	golden := map[string]uint64{
		"uips":       0xeeb5ac13ca7bac60,
		"maxent":     0xdf88d89ec0873dc3,
		"lhs":        0x38eadc934a652948,
		"stratified": 0x2714732978560555,
		"random":     0x37f23e1ff154b59d,
	}
	for method, want := range golden {
		cfg := PipelineConfig{
			Hypercubes: "maxent", Method: method,
			NumHypercubes: 2, NumSamples: 64, CubeSx: 16,
			NumClusters: 4, Seed: 7,
		}
		cubes, err := SubsampleDataset(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(cubes) != 4 {
			t.Fatalf("%s: %d cube samples, want 4", method, len(cubes))
		}
		if got := hashCubeSamples(cubes); got != want {
			t.Errorf("%s: selection hash %#x, want %#x", method, got, want)
		}
	}
}
