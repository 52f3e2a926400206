package stream

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cfd2d"
	"repro/internal/cfd3d"
	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stats"
	"repro/internal/synth"
)

func testDataset() *grid.Dataset {
	return synth.SSTDataset("SST-stream-test", 6, synth.StratifiedConfig{
		Nx: 32, Ny: 16, Nz: 32, Seed: 5,
	})
}

func testPipelineConfig() sampling.PipelineConfig {
	return sampling.PipelineConfig{
		Hypercubes: "maxent", Method: "uips",
		NumHypercubes: 3, NumSamples: 128,
		CubeSx: 16, CubeSy: 16, CubeSz: 16,
		NumClusters: 4, Seed: 9,
	}
}

func featureRows(cubes []sampling.CubeSample) [][]float64 {
	var rows [][]float64
	for i := range cubes {
		rows = append(rows, cubes[i].Features...)
	}
	return rows
}

// TestStreamMatchesOffline is the acceptance criterion: the streamed
// selection over a synthetic dataset must reproduce the offline
// sickle-subsample result — identical per-cube counts and indistinguishable
// distribution stats — while never buffering more snapshots than the window.
func TestStreamMatchesOffline(t *testing.T) {
	d := testDataset()
	pcfg := testPipelineConfig()

	offline, err := sampling.SubsampleDataset(context.Background(), d, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	const window = 2
	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: pcfg, Ranks: 2, Window: window, MergeEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Snapshots != len(d.Snapshots) {
		t.Fatalf("streamed %d snapshots, want %d", res.Snapshots, len(d.Snapshots))
	}
	if res.PeakBuffered > window {
		t.Fatalf("peak buffered %d exceeds window %d", res.PeakBuffered, window)
	}
	if len(res.Cubes) != len(offline) {
		t.Fatalf("stream selected %d cube samples, offline %d", len(res.Cubes), len(offline))
	}
	for i := range offline {
		a, b := res.Cubes[i], offline[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube {
			t.Fatalf("cube %d: stream (%d,%d) vs offline (%d,%d)",
				i, a.Snapshot, a.Cube.ID, b.Snapshot, b.Cube.ID)
		}
		if len(a.LocalIdx) != len(b.LocalIdx) {
			t.Fatalf("cube %d: per-cube count %d vs offline %d", i, len(a.LocalIdx), len(b.LocalIdx))
		}
		for r := range a.LocalIdx {
			if a.LocalIdx[r] != b.LocalIdx[r] {
				t.Fatalf("cube %d point %d: index %d vs offline %d",
					i, r, a.LocalIdx[r], b.LocalIdx[r])
			}
		}
	}

	// Distribution stats of the two selections must agree within tolerance
	// (they are bit-identical here, so this is belt and braces).
	hs := stats.NDHistogramFromPoints(featureRows(res.Cubes), 8)
	ho := stats.NDHistogramFromPoints(featureRows(offline), 8)
	if du := math.Abs(hs.UniformityIndex() - ho.UniformityIndex()); du > 0.02 {
		t.Fatalf("UniformityIndex differs by %v (stream %v, offline %v)",
			du, hs.UniformityIndex(), ho.UniformityIndex())
	}

	// The merged sketch must have seen every selected point, across ranks
	// and merge rounds.
	if res.Sketch == nil || res.Sketch.N != res.Points {
		t.Fatalf("merged sketch N = %v, want %d points", res.Sketch.N, res.Points)
	}
	if res.MergeRounds < 2 {
		t.Fatalf("expected periodic + final merges, got %d rounds", res.MergeRounds)
	}
}

// TestStreamShardedMatchesOffline runs the pipeline in sharded-writer mode
// and checks the union of the per-rank shards equals the offline selection.
func TestStreamShardedMatchesOffline(t *testing.T) {
	d := testDataset()
	pcfg := testPipelineConfig()
	offline, err := sampling.SubsampleDataset(context.Background(), d, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	prefix := filepath.Join(t.TempDir(), "stream")
	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: pcfg, Ranks: 3, Window: 2, ShardPrefix: prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cubes != nil {
		t.Fatal("sharded mode should not retain cubes in memory")
	}
	if len(res.ShardPaths) != 3 {
		t.Fatalf("want 3 shards, got %v", res.ShardPaths)
	}
	var union []sampling.CubeSample
	for _, p := range res.ShardPaths {
		cubes, err := sickle.LoadCubeSamples(p)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, cubes...)
	}
	sort.SliceStable(union, func(a, b int) bool {
		if union[a].Snapshot != union[b].Snapshot {
			return union[a].Snapshot < union[b].Snapshot
		}
		return union[a].Cube.ID < union[b].Cube.ID
	})
	if len(union) != len(offline) {
		t.Fatalf("shards hold %d cube samples, offline %d", len(union), len(offline))
	}
	total := 0
	for i := range union {
		a, b := union[i], offline[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube || len(a.LocalIdx) != len(b.LocalIdx) {
			t.Fatalf("cube %d mismatch vs offline", i)
		}
		for r := range a.LocalIdx {
			if a.LocalIdx[r] != b.LocalIdx[r] {
				t.Fatal("index mismatch vs offline")
			}
			for v := range a.Features[r] {
				if a.Features[r][v] != b.Features[r][v] {
					t.Fatal("feature mismatch vs offline")
				}
			}
		}
		total += len(a.LocalIdx)
	}
	if total != res.Points {
		t.Fatalf("Result.Points = %d, shards hold %d", res.Points, total)
	}
}

// TestStreamRemovesStaleShards pins the shard contract: re-running under the
// same prefix with fewer ranks must not leave a previous run's higher-rank
// shards behind, or a `<prefix>-rank*.skl` glob would union two runs.
func TestStreamRemovesStaleShards(t *testing.T) {
	d := testDataset()
	pcfg := testPipelineConfig()
	prefix := filepath.Join(t.TempDir(), "stream")
	if _, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: pcfg, Ranks: 4, Window: 2, ShardPrefix: prefix,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: pcfg, Ranks: 2, Window: 2, ShardPrefix: prefix,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(prefix + "-rank*.skl")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want exactly 2 shards after 2-rank rerun, got %v", got)
	}
}

// TestStreamWindowBackpressure pins the memory budget: with a window of 1
// the pipeline must never buffer more than one snapshot (and no more bytes
// than the largest single snapshot).
func TestStreamWindowBackpressure(t *testing.T) {
	d := testDataset()
	var maxSnap int64
	for _, f := range d.Snapshots {
		if b := f.SizeBytes(); b > maxSnap {
			maxSnap = b
		}
	}
	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: testPipelineConfig(), Ranks: 1, Window: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBuffered != 1 {
		t.Fatalf("peak buffered = %d, want 1", res.PeakBuffered)
	}
	if res.PeakBufferedBytes > maxSnap {
		t.Fatalf("peak buffered bytes %d exceed one snapshot (%d)", res.PeakBufferedBytes, maxSnap)
	}
	if res.SnapshotsPerSec <= 0 {
		t.Fatalf("throughput not reported: %v", res.SnapshotsPerSec)
	}
}

// TestStreamReservoirBudget checks the budgeted-reservoir mode: across the
// whole stream no cube may keep more than the budget, while the sketch still
// counts every candidate.
func TestStreamReservoirBudget(t *testing.T) {
	d := testDataset()
	pcfg := testPipelineConfig()
	const budget = 50
	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: pcfg, Ranks: 2, Window: 2, MergeEvery: 1, ReservoirBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	perCube := map[int]int{}
	for i := range res.Cubes {
		perCube[res.Cubes[i].Cube.ID] += len(res.Cubes[i].LocalIdx)
	}
	if len(perCube) == 0 {
		t.Fatal("reservoir kept nothing")
	}
	for id, n := range perCube {
		if n > budget {
			t.Fatalf("cube %d kept %d > budget %d", id, n, budget)
		}
		if n < budget/2 {
			t.Fatalf("cube %d kept only %d of budget %d", id, n, budget)
		}
	}
	// Candidates: NumHypercubes cubes × NumSamples per snapshot × snapshots.
	wantCandidates := pcfg.NumHypercubes * pcfg.NumSamples * len(d.Snapshots)
	if res.Sketch.N != wantCandidates {
		t.Fatalf("sketch saw %d candidates, want %d", res.Sketch.N, wantCandidates)
	}
	if res.Points > pcfg.NumHypercubes*budget {
		t.Fatalf("kept %d points, budget allows %d", res.Points, pcfg.NumHypercubes*budget)
	}
}

// TestLiveSolverSources exercises the three live adapters end to end on tiny
// grids: each must stream the declared number of snapshots carrying the
// declared variables, then report EOF.
func TestLiveSolverSources(t *testing.T) {
	sources := []SnapshotSource{
		NewCFD3DSource(cfd3d.Config{N: 8, Seed: 3}, 3, 1),
		NewCFD2DSource(cfd2d.Config{
			Nx: 64, Ny: 32, U0: 0.1, Reynolds: 100, D: 8, Cx: 16, Cy: 16,
		}, 5, 3, 2),
		NewSynthSource(synth.StratifiedConfig{Nx: 16, Ny: 8, Nz: 16, Seed: 7}, 3),
	}
	for _, src := range sources {
		meta := src.Meta()
		need := append(append([]string{}, meta.InputVars...), meta.OutputVars...)
		need = append(need, meta.ClusterVar)
		for i := 0; i < meta.TotalSnapshots; i++ {
			f, err := src.Next()
			if err != nil {
				t.Fatalf("%s snapshot %d: %v", meta.Label, i, err)
			}
			for _, v := range need {
				if !f.HasVar(v) {
					t.Fatalf("%s snapshot %d missing %q", meta.Label, i, v)
				}
			}
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("%s: want io.EOF after %d snapshots, got %v",
				meta.Label, meta.TotalSnapshots, err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCFD3DSourceMatchesEvolveDataset pins the live adapter to the offline
// trajectory: streaming the solver must see the exact fields EvolveDataset
// materializes.
func TestCFD3DSourceMatchesEvolveDataset(t *testing.T) {
	cfg := cfd3d.Config{N: 8, Seed: 11}
	ref := cfd3d.EvolveDataset("ref", 3, 2, cfg)
	src := NewCFD3DSource(cfg, 3, 2)
	for tstep := 0; tstep < 3; tstep++ {
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshots[tstep]
		u, wu := f.Var("u"), want.Var("u")
		for i := range u {
			if u[i] != wu[i] {
				t.Fatalf("snapshot %d: u[%d] = %v, want %v", tstep, i, u[i], wu[i])
			}
		}
	}
}

// TestSynthSourceMatchesSSTDataset pins the generator adapter to the
// materializing constructor: the same snapshots, every variable and the
// time bit for bit, for sickle-stream's config and one with gravity along y.
func TestSynthSourceMatchesSSTDataset(t *testing.T) {
	for _, cfg := range []synth.StratifiedConfig{
		{Nx: 16, Ny: 8, Nz: 16, Seed: 13, AnisoFactor: 6, Froude: 0.15},
		{Nx: 8, Ny: 16, Nz: 8, Seed: 5, GravityAxis: 1},
	} {
		ref := synth.SSTDataset("ref", 3, cfg)
		src := NewSynthSource(cfg, 3)
		for tstep, want := range ref.Snapshots {
			f, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(f.Time) != math.Float64bits(want.Time) {
				t.Fatalf("%+v snapshot %d: time %v, want %v", cfg, tstep, f.Time, want.Time)
			}
			for _, name := range want.VarNames() {
				got, wv := f.Var(name), want.Var(name)
				for i := range wv {
					if math.Float64bits(got[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("%+v snapshot %d: %s[%d] = %v, want %v", cfg, tstep, name, i, got[i], wv[i])
					}
				}
			}
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("%+v: want io.EOF after 3 snapshots, got %v", cfg, err)
		}
	}
}

// TestStreamRankLayoutInvariance checks the parity-mode selection does not
// depend on the rank count (per-snapshot seeding makes distribution
// irrelevant).
func TestStreamRankLayoutInvariance(t *testing.T) {
	d := testDataset()
	pcfg := testPipelineConfig()
	var ref []sampling.CubeSample
	for _, ranks := range []int{1, 3} {
		res, err := Run(t.Context(), NewReplaySource(d), Config{
			Pipeline: pcfg, Ranks: ranks, Window: 3, MergeEvery: 2,
			Cost: minimpi.CostModel{Latency: 1e-5, Bandwidth: 1e9},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The collectives of a multi-rank run are charged to the cost
		// model; a single rank communicates with nobody.
		if comm := res.World.MaxSimCommSeconds(); (comm > 0) != (ranks > 1) {
			t.Fatalf("ranks=%d: %v s of simulated communication charged", ranks, comm)
		}
		if ref == nil {
			ref = res.Cubes
			continue
		}
		if len(res.Cubes) != len(ref) {
			t.Fatalf("ranks=%d: %d cube samples, want %d", ranks, len(res.Cubes), len(ref))
		}
		for i := range ref {
			if res.Cubes[i].Snapshot != ref[i].Snapshot || res.Cubes[i].Cube != ref[i].Cube {
				t.Fatalf("ranks=%d: cube %d identity mismatch", ranks, i)
			}
			for r := range ref[i].LocalIdx {
				if res.Cubes[i].LocalIdx[r] != ref[i].LocalIdx[r] {
					t.Fatalf("ranks=%d: cube %d index mismatch", ranks, i)
				}
			}
		}
	}
}

// TestEffectiveBins pins the dense-merge budget contract: bins shrink to
// fit, and impossibly wide feature spaces are rejected instead of
// over-allocating the collective buffer.
func TestEffectiveBins(t *testing.T) {
	if b, err := effectiveBins(8, 4); err != nil || b != 8 {
		t.Fatalf("8 bins / 4 dims: got %d, %v", b, err)
	}
	b, err := effectiveBins(64, 8) // 64^8 way over budget; must shrink
	if err != nil {
		t.Fatal(err)
	}
	cells := 1
	for i := 0; i < 8; i++ {
		cells *= b
	}
	if cells > maxDenseCells || b < 2 {
		t.Fatalf("shrunk bins %d give %d cells", b, cells)
	}
	if _, err := effectiveBins(8, 30); err == nil {
		t.Fatal("2^30 cells should be rejected")
	}
}

// TestEmptyStreamErrors pins the error contract for sources that produce
// nothing.
func TestEmptyStreamErrors(t *testing.T) {
	d := testDataset()
	empty := &grid.Dataset{
		Label: "empty", InputVars: d.InputVars, OutputVars: d.OutputVars,
		ClusterVar: d.ClusterVar,
	}
	if _, err := Run(t.Context(), NewReplaySource(empty), Config{Pipeline: testPipelineConfig()}); err == nil {
		t.Fatal("empty stream should error")
	}
}
