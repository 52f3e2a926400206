package sickle

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sampling"
	"repro/internal/synth"
)

// TestGoldenDatasets pins every bit of the synthetic Table 1 analogues the
// generators build at Small scale (OF2D, the slow lattice run, is left to
// its own tests): per snapshot, FNV-64a over each variable in VarNames
// order — its name, then each value's float64 bits little-endian — and
// then the bits of the snapshot's time. The hashes were taken from the
// generators before their settings became constants; never regenerate
// them to make a change pass.
func TestGoldenDatasets(t *testing.T) {
	want := map[string]uint64{
		"TC2D":       0x9a8237ce96755baa,
		"SST-P1F4":   0xadf676369aa82f4a,
		"SST-P1F100": 0xb90d811837090fd4,
		"GESTS-2048": 0x7916029ca51cf90c,
		"GESTS-8192": 0xe12ec49d116dcd01,
	}
	var b [8]byte
	put := func(h io.Writer, x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for name, sum := range want {
		d, err := BuildDataset(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, f := range d.Snapshots {
			for _, v := range f.VarNames() {
				io.WriteString(h, v)
				for _, x := range f.Var(v) {
					put(h, x)
				}
			}
			put(h, f.Time)
		}
		if got := h.Sum64(); got != sum {
			t.Errorf("%s: hash %#016x, want %#016x", name, got, sum)
		}
	}
}

// goldenCubes is the selection behind testdata/golden_uips.skl: 2 snapshots
// × 2 cubes of 8³, 12 uips points each.
func goldenCubes(t testing.TB) []sampling.CubeSample {
	t.Helper()
	d := synth.SSTDataset("golden", 2, synth.StratifiedConfig{Nx: 16, Ny: 16, Nz: 8, Seed: 21})
	cubes, err := sampling.SubsampleDataset(context.Background(), d, sampling.PipelineConfig{
		Hypercubes: "maxent", Method: "uips",
		NumHypercubes: 2, NumSamples: 12,
		CubeSx: 8, CubeSy: 8, CubeSz: 8, NumClusters: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cubes
}

// TestGoldenSKL holds the writer and the sampler to a file the
// binary.Write codec produced from the sort-based sampler: the same
// selection must serialize to the same bytes, and the committed file must
// load back to that selection.
func TestGoldenSKL(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_uips.skl"))
	if err != nil {
		t.Fatal(err)
	}
	cubes := goldenCubes(t)
	path := filepath.Join(t.TempDir(), "golden.skl")
	if err := SaveCubeSamples(path, cubes); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SaveCubeSamples wrote %d bytes that differ from the %d-byte golden", len(got), len(want))
	}
	loaded, err := LoadCubeSamples(filepath.Join("testdata", "golden_uips.skl"))
	if err != nil {
		t.Fatal(err)
	}
	requireSameCubes(t, loaded, cubes)
}

// requireSameCubes asserts two selections are equal value for value.
func requireSameCubes(t testing.TB, got, want []sampling.CubeSample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cube samples, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube || len(a.LocalIdx) != len(b.LocalIdx) ||
			len(a.Features) != len(b.Features) || len(a.Targets) != len(b.Targets) {
			t.Fatalf("cube sample %d: header or shape mismatch", i)
		}
		for r := range b.LocalIdx {
			if a.LocalIdx[r] != b.LocalIdx[r] {
				t.Fatalf("cube sample %d row %d: local index %d, want %d", i, r, a.LocalIdx[r], b.LocalIdx[r])
			}
			if !sameBits(a.Features[r], b.Features[r]) || !sameBits(a.Targets[r], b.Targets[r]) {
				t.Fatalf("cube sample %d row %d: values differ", i, r)
			}
		}
	}
}

// sameBits compares float rows bit for bit (NaN payloads included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
