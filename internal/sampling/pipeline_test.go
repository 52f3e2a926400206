package sampling

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/synth"
)

func smallSST(t testing.TB, snaps int) *grid.Dataset {
	t.Helper()
	d := synth.SSTDataset("SST-TEST", snaps,
		synth.StratifiedConfig{Nx: 32, Ny: 32, Nz: 16, Seed: 101})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSubsampleSnapshotShapes(t *testing.T) {
	d := smallSST(t, 1)
	cfg := PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: 3, NumSamples: 100,
		CubeSx: 16, CubeSy: 16, CubeSz: 16,
		NumClusters: 5, Seed: 1,
	}
	out, err := SubsampleSnapshot(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d cubes, want 3", len(out))
	}
	for _, cs := range out {
		if len(cs.LocalIdx) != 100 {
			t.Fatalf("cube %d: %d samples, want 100", cs.Cube.ID, len(cs.LocalIdx))
		}
		if len(cs.Features) != 100 || len(cs.Targets) != 100 {
			t.Fatal("features/targets length mismatch")
		}
		if len(cs.Features[0]) != len(d.InputVars) {
			t.Fatalf("feature dim %d, want %d", len(cs.Features[0]), len(d.InputVars))
		}
		if len(cs.Targets[0]) != len(d.OutputVars) {
			t.Fatalf("target dim %d, want %d", len(cs.Targets[0]), len(d.OutputVars))
		}
	}
}

func TestSubsampleFullKeepsWholeCubes(t *testing.T) {
	d := smallSST(t, 1)
	cfg := PipelineConfig{
		Hypercubes: "random", Method: "full",
		NumHypercubes: 2, CubeSx: 16, CubeSy: 16, CubeSz: 16, Seed: 2,
	}
	out, err := SubsampleSnapshot(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range out {
		if len(cs.LocalIdx) != 16*16*16 {
			t.Fatalf("full method kept %d points, want %d", len(cs.LocalIdx), 16*16*16)
		}
	}
}

func TestSubsampleFeatureValuesMatchField(t *testing.T) {
	d := smallSST(t, 1)
	cfg := PipelineConfig{
		Hypercubes: "random", Method: "random",
		NumHypercubes: 1, NumSamples: 50,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, Seed: 3,
	}
	out, err := SubsampleSnapshot(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := out[0]
	f := d.Snapshots[0]
	flat := cs.Cube.Indices(f)
	for r, li := range cs.LocalIdx {
		for v, name := range d.InputVars {
			if cs.Features[r][v] != f.Var(name)[flat[li]] {
				t.Fatalf("feature mismatch at sample %d var %s", r, name)
			}
		}
		for v, name := range d.OutputVars {
			if cs.Targets[r][v] != f.Var(name)[flat[li]] {
				t.Fatalf("target mismatch at sample %d var %s", r, name)
			}
		}
	}
}

func TestSubsampleCubeTooLarge(t *testing.T) {
	d := smallSST(t, 1)
	cfg := PipelineConfig{CubeSx: 64, CubeSy: 64, CubeSz: 64, Seed: 4}
	if _, err := SubsampleSnapshot(context.Background(), d, 0, cfg); err == nil {
		t.Fatal("expected error for oversized cubes")
	}
}

// TestFitTo is the one cube-geometry rule: a missing edge follows CubeSx
// (itself 32 by default), then every edge shrinks to the grid axis it
// exceeds — to that axis, not to min(32, axis) — and a 2-D plane's Sz=1 is
// left alone.
func TestFitTo(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sx, sy, sz int // requested
		nx, ny, nz int // grid
		wx, wy, wz int // fitted
	}{
		{"all missing, roomy grid", 0, 0, 0, 64, 64, 64, 32, 32, 32},
		{"all missing, small grid", 0, 0, 0, 16, 24, 8, 16, 24, 8},
		{"missing edges follow CubeSx", 16, 0, 0, 32, 32, 32, 16, 16, 16},
		{"followers shrink per axis", 16, 0, 0, 32, 8, 32, 16, 8, 16},
		{"named edges kept", 8, 4, 2, 32, 32, 32, 8, 4, 2},
		{"oversized edge shrinks to the axis, not to 32", 100, 100, 100, 64, 48, 40, 64, 48, 40},
		{"2-D plane", 180, 60, 1, 180, 60, 1, 180, 60, 1},
		{"2-D plane, Sz missing", 16, 0, 0, 180, 60, 1, 16, 16, 1},
	} {
		c := PipelineConfig{CubeSx: tc.sx, CubeSy: tc.sy, CubeSz: tc.sz}
		c.FitTo(grid.NewField(tc.nx, tc.ny, tc.nz))
		if c.CubeSx != tc.wx || c.CubeSy != tc.wy || c.CubeSz != tc.wz {
			t.Errorf("%s: %d×%d×%d on a %d×%d×%d grid fitted to %d×%d×%d, want %d×%d×%d", tc.name,
				tc.sx, tc.sy, tc.sz, tc.nx, tc.ny, tc.nz, c.CubeSx, c.CubeSy, c.CubeSz, tc.wx, tc.wy, tc.wz)
		}
		again := c
		again.FitTo(grid.NewField(tc.nx, tc.ny, tc.nz))
		if again.CubeSx != c.CubeSx || again.CubeSy != c.CubeSy || again.CubeSz != c.CubeSz {
			t.Errorf("%s: fitting twice changed the geometry", tc.name)
		}
	}
}

func TestHMaxEntPrefersInformativeCubes(t *testing.T) {
	// Construct a field where one region has rich multi-modal KCV and the
	// rest is constant: MaxEnt cube selection should pick the rich cubes
	// far more often than uniform selection would.
	f := grid.NewField(64, 16, 16)
	kcv := f.AddVar("q", nil)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 16; k++ {
		for j := 0; j < 16; j++ {
			for i := 0; i < 64; i++ {
				if i < 16 {
					// Rich: bimodal.
					if rng.Float64() < 0.5 {
						kcv[f.Idx(i, j, k)] = 5 + rng.NormFloat64()
					} else {
						kcv[f.Idx(i, j, k)] = -5 + rng.NormFloat64()
					}
				} else {
					kcv[f.Idx(i, j, k)] = 0.01 * rng.NormFloat64()
				}
			}
		}
	}
	cubes := grid.Tile(f, 16, 16, 16) // 4 cubes along x; cube 0 is rich
	richPicks := 0
	trials := 200
	for s := 0; s < trials; s++ {
		sel := HMaxEnt{NumClusters: 4}.SelectCubes(f, cubes, "q", 1, rand.New(rand.NewSource(int64(s))))
		if sel[0].ID == 0 {
			richPicks++
		}
	}
	// Uniform would give ~50 picks (25%); require a clear preference.
	if richPicks < 100 {
		t.Fatalf("HMaxEnt picked the informative cube only %d/%d times", richPicks, trials)
	}
}

func TestHRandomSelectsRequested(t *testing.T) {
	f := grid.NewField(64, 32, 32)
	f.AddVar("q", nil)
	cubes := grid.Tile(f, 32, 32, 32)
	sel := HRandom{}.SelectCubes(f, cubes, "q", 1, rand.New(rand.NewSource(1)))
	if len(sel) != 1 {
		t.Fatalf("selected %d cubes", len(sel))
	}
	sel = HRandom{}.SelectCubes(f, cubes, "q", 10, rand.New(rand.NewSource(1)))
	if len(sel) != 2 {
		t.Fatalf("oversize request returned %d cubes, want all 2", len(sel))
	}
}

func TestSubsampleDatasetAllSnapshots(t *testing.T) {
	d := smallSST(t, 3)
	cfg := PipelineConfig{
		Hypercubes: "random", Method: "random",
		NumHypercubes: 2, NumSamples: 20,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, Seed: 6,
	}
	out, err := SubsampleDataset(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("got %d cube samples, want 6 (3 snaps × 2 cubes)", len(out))
	}
}

func TestTemporalSamplingDropsPeriodicRepeats(t *testing.T) {
	// Build a dataset whose snapshots cycle with period 4: temporal
	// selection should keep far fewer than all 20 snapshots.
	rng := rand.New(rand.NewSource(9))
	snaps := make([]*grid.Field, 20)
	for tt := range snaps {
		f := grid.NewField(32, 32, 1)
		u := f.AddVar("u", nil)
		phase := float64(tt%4) * 2
		for i := range u {
			u[i] = phase + 0.01*rng.NormFloat64()
		}
		snaps[tt] = f
	}
	d := &grid.Dataset{Label: "cyc", Snapshots: snaps, InputVars: []string{"u"}}
	kept := SelectSnapshots(d, TemporalConfig{Var: "u", Threshold: 0.05})
	if len(kept) >= 10 {
		t.Fatalf("temporal sampling kept %d/20 periodic snapshots, want < 10", len(kept))
	}
	if kept[0] != 0 {
		t.Fatal("first snapshot must always be kept")
	}
	// Novel snapshots must be kept: the first cycle (phases 0,2,4,6) shows
	// up in the kept set.
	if len(kept) < 3 {
		t.Fatalf("temporal sampling kept only %d snapshots, losing novel phases", len(kept))
	}
}

func TestPipelineEnergyAccounting(t *testing.T) {
	d := smallSST(t, 1)
	m := energy.NewMeter()
	cfg := PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: 2, NumSamples: 50,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, NumClusters: 4, Seed: 11, Meter: m,
	}
	if _, err := SubsampleSnapshot(context.Background(), d, 0, cfg); err != nil {
		t.Fatal(err)
	}
	if m.Joules() <= 0 {
		t.Fatal("pipeline charged no energy")
	}
}

func BenchmarkSubsampleMaxEnt(b *testing.B) {
	d := smallSST(b, 1)
	cfg := PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: 2, NumSamples: 100,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, NumClusters: 5, Seed: 12,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubsampleSnapshot(context.Background(), d, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSubsampleCancelBetweenCubes: canceling the context mid-snapshot
// stops phase 2 between cube batches — the progress callback sees the
// cubes completed before the cancel, and the run returns ctx.Err().
func TestSubsampleCancelBetweenCubes(t *testing.T) {
	d := smallSST(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var calls []int
	cfg := PipelineConfig{
		NumHypercubes: 4, NumSamples: 20,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, Seed: 3,
		Progress: func(done, total int) {
			calls = append(calls, done)
			if done == 2 {
				cancel() // takes effect before cube 3 starts
			}
		},
	}
	_, err := SubsampleSnapshot(ctx, d, 0, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(calls) != 2 || calls[len(calls)-1] != 2 {
		t.Fatalf("progress calls = %v; pipeline did not stop after the canceling cube", calls)
	}

	// An already-canceled context refuses before phase 1.
	if _, err := SelectCubesForDataset(ctx, d, 0, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 under canceled ctx = %v", err)
	}
}
