package sampling

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cfd3d"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// TestGoldenMaxEntSelection pins both MaxEnt phases to what the [][]float64
// k-means (one slice per point, every cube re-labelled) chose: for each
// (dataset, k, seed) it hashes the kept cube IDs, the full two-phase
// selection and the Meter's flops and bytes. k = 0 is each phase's default
// (5 for Hmaxent, 20 for Xmaxent). The datasets are built as the sickle
// registry builds them at small scale, SST-P1F4 cut to its first two
// snapshots. Never regenerate these values to make a change pass.
func TestGoldenMaxEntSelection(t *testing.T) {
	datasets := []struct {
		name string
		edge int
		d    *grid.Dataset
	}{
		{"GESTS-2048", 8, synth.GESTSDataset("GESTS-2048", synth.IsotropicConfig{N: 32, Seed: 17, KPeak: 4})},
		{"GESTS-8192", 16, synth.GESTSDataset("GESTS-8192", synth.IsotropicConfig{N: 64, Seed: 19, KPeak: 6})},
		{"SST-P1F4", 8, cfd3d.EvolveDataset("SST-P1F4", 2, 2, cfd3d.Config{N: 32, Seed: 11, BruntN: 2})},
	}
	golden := map[string]uint64{
		"GESTS-2048/edge8/k0/seed1":   0xa524f7d67340ae1e,
		"GESTS-2048/edge8/k0/seed29":  0xdef7bb2ffa6b9ef0,
		"GESTS-2048/edge8/k3/seed1":   0xe35032bdb28eadb5,
		"GESTS-2048/edge8/k3/seed29":  0x63e4bee388ddb56c,
		"GESTS-2048/edge8/k7/seed1":   0xf2d7c1bcb8f726aa,
		"GESTS-2048/edge8/k7/seed29":  0xebe62250e3cb1a9b,
		"GESTS-8192/edge16/k0/seed1":  0x89b1a619e778220b,
		"GESTS-8192/edge16/k0/seed29": 0xa0e130727a2d2cf2,
		"GESTS-8192/edge16/k3/seed1":  0x857b159adee03ae6,
		"GESTS-8192/edge16/k3/seed29": 0x7db1221b18454dc5,
		"GESTS-8192/edge16/k7/seed1":  0x0e8ddbbe6448a598,
		"GESTS-8192/edge16/k7/seed29": 0x2ac13498adead4a0,
		"SST-P1F4/edge8/k0/seed1":     0xbfdd01d37def251b,
		"SST-P1F4/edge8/k0/seed29":    0x1692d490c7c30980,
		"SST-P1F4/edge8/k3/seed1":     0xa62fd6a369340150,
		"SST-P1F4/edge8/k3/seed29":    0xdd9e5f608d093b4f,
		"SST-P1F4/edge8/k7/seed1":     0x3d4a5a29ba8052b6,
		"SST-P1F4/edge8/k7/seed29":    0x1d371dcd4c72d4d5,
	}
	ctx := context.Background()
	for _, ds := range datasets {
		for _, k := range []int{0, 3, 7} {
			for _, seed := range []int64{1, 29} {
				name := fmt.Sprintf("%s/edge%d/k%d/seed%d", ds.name, ds.edge, k, seed)
				m := new(energy.Meter)
				cfg := PipelineConfig{
					Hypercubes: "maxent", Method: "maxent",
					NumHypercubes: 8, NumSamples: ds.edge * ds.edge * ds.edge / 10,
					CubeSx: ds.edge, NumClusters: k, Seed: seed, Meter: m,
				}
				kept, err := SelectCubesForDataset(ctx, ds.d, 0, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s, err := NewCubeSampler(cfg, ds.d.InputVars, ds.d.OutputVars, ds.d.ClusterVar)
				if err != nil {
					t.Fatal(err)
				}
				var cubes []CubeSample
				for snap, f := range ds.d.Snapshots {
					cs, err := s.SampleField(ctx, f, snap, kept)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cubes = append(cubes, cs...)
				}
				h := fnv.New64a()
				var b [8]byte
				put := func(v uint64) {
					binary.LittleEndian.PutUint64(b[:], v)
					h.Write(b[:])
				}
				for _, c := range kept {
					put(uint64(c.ID))
				}
				put(hashCubeSamples(cubes))
				put(uint64(m.Flops()))
				put(uint64(m.Bytes()))
				if got, want := h.Sum64(), golden[name]; got != want {
					t.Errorf("%s: hash %#x, want %#x", name, got, want)
				}
			}
		}
	}
}

// hmaxentStrengthsRef scores cubes the way HMaxEnt did over one-element
// rows: the strided cluster variable clustered as [][]float64 points, each
// cube gathered with VarValues and every value labelled by a scan of the
// centroids, one occupancy slice per cube.
func hmaxentStrengthsRef(t *testing.T, f *grid.Field, cubes []grid.Hypercube, kcvVar string, k int) []float64 {
	kcv := f.Var(kcvVar)
	var sub [][]float64
	for i := 0; i < len(kcv); i += hMaxEntStride {
		sub = append(sub, []float64{kcv[i]})
	}
	res, err := cluster.KMeans(sub, cluster.Config{K: k, Seed: 12345, BatchSize: 256, MaxIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	occ := make([][]float64, len(cubes))
	for ci, cube := range cubes {
		occ[ci] = make([]float64, len(res.Centroids))
		for _, x := range cube.VarValues(f, kcvVar) {
			best, bestD := 0, math.MaxFloat64
			for j, c := range res.Centroids {
				if d := (x - c[0]) * (x - c[0]); d < bestD {
					best, bestD = j, d
				}
			}
			occ[ci][best]++
		}
	}
	strength := make([]float64, len(cubes))
	for i := range cubes {
		strength[i] = stats.Entropy(occ[i])
		for j := range cubes {
			if i != j {
				strength[i] += stats.KLDivergence(occ[i], occ[j]) / float64(len(cubes)-1)
			}
		}
	}
	return strength
}

// TestHMaxEntStrengthsBitIdenticalSerialVsParallel pins phase 1's pooled
// occupancy count: a 32³ field tiled into 64 cubes at k = 5 counts
// 2¹⁵·5 cell-cluster steps, 5 chunks, and each of 8 pooled runs must score
// every cube as the serial run does, bit for bit.
func TestHMaxEntStrengthsBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	f := synth.GESTSDataset("GESTS-2048", synth.IsotropicConfig{N: 32, Seed: 17, KPeak: 4}).Snapshots[0]
	cubes := grid.Tile(f, 8, 8, 8)
	h := HMaxEnt{NumClusters: 5}
	tensor.SetParallel(false)
	want := h.strengths(f, cubes, "enstrophy")
	tensor.SetParallel(true)
	for run := range 8 {
		got := h.strengths(f, cubes, "enstrophy")
		if got.k != want.k || len(got.strength) != len(cubes) {
			t.Fatalf("run %d: %d clusters and %d strengths pooled, %d and %d serial",
				run, got.k, len(got.strength), want.k, len(want.strength))
		}
		for i := range got.strength {
			if math.Float64bits(got.strength[i]) != math.Float64bits(want.strength[i]) {
				t.Fatalf("run %d: cube %d strength %v pooled, %v serial", run, i, got.strength[i], want.strength[i])
			}
		}
	}
}

// TestHMaxEntMatchesReference: phase 1's fanned-out occupancy counting
// scores every cube exactly as the per-cube reference does, seen through
// the draws — over many request seeds, the kept cubes are the reference
// strengths' weighted draw every time.
func TestHMaxEntMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		f    *grid.Field
		edge int
	}{
		{synth.GESTSDataset("GESTS-2048", synth.IsotropicConfig{N: 32, Seed: 17, KPeak: 4}).Snapshots[0], 8},
		{synth.GESTSDataset("GESTS-8192", synth.IsotropicConfig{N: 64, Seed: 19, KPeak: 6}).Snapshots[0], 16},
	} {
		cubes := grid.Tile(tc.f, tc.edge, tc.edge, tc.edge)
		for _, k := range []int{5, 3, 7} {
			strength := hmaxentStrengthsRef(t, tc.f, cubes, "enstrophy", k)
			for seed := int64(0); seed < 16; seed++ {
				want := weightedSampleWithoutReplacement(strength, 8, rand.New(rand.NewSource(seed)))
				got := HMaxEnt{NumClusters: k}.SelectCubes(tc.f, cubes, "enstrophy", 8, rand.New(rand.NewSource(seed)))
				for i, c := range got {
					if c.ID != cubes[want[i]].ID {
						t.Fatalf("edge %d, k %d, seed %d: kept %v, reference draw %v", tc.edge, k, seed, got, want)
					}
				}
			}
		}
	}
}
