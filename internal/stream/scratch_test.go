package stream

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/synth"
)

// requireSameSelection asserts two selections agree cube for cube, index for
// index and value for value (float bits).
func requireSameSelection(t *testing.T, label string, got, want []sampling.CubeSample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cube samples, want %d", label, len(got), len(want))
	}
	sameRows := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(p, q float64) bool {
				return math.Float64bits(p) == math.Float64bits(q)
			})
		})
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube {
			t.Fatalf("%s: sample %d is (snap %d, cube %+v), want (snap %d, cube %+v)",
				label, i, a.Snapshot, a.Cube, b.Snapshot, b.Cube)
		}
		if !slices.Equal(a.LocalIdx, b.LocalIdx) {
			t.Fatalf("%s: sample %d selected different points", label, i)
		}
		if !sameRows(a.Features, b.Features) || !sameRows(a.Targets, b.Targets) {
			t.Fatalf("%s: sample %d carries different values", label, i)
		}
	}
}

// TestCubeEdgeDefaultMatchesOffline: a config that names only CubeSx means
// CubeSx-edged cubes on both paths. The stream used to fill the missing
// edges with min(32, grid) and sample 16×16×32 slabs here.
func TestCubeEdgeDefaultMatchesOffline(t *testing.T) {
	d := testDataset() // 32×16×32
	pcfg := testPipelineConfig()
	pcfg.CubeSy, pcfg.CubeSz = 0, 0
	ctx := context.Background()
	kept, err := sampling.SelectCubesForDataset(ctx, d, 0, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sampling.SubsampleDataset(ctx, d, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, NewReplaySource(d), Config{Pipeline: pcfg, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Pipeline; p.CubeSx != 16 || p.CubeSy != 16 || p.CubeSz != 16 {
		t.Fatalf("effective cube %d×%d×%d, want 16×16×16", p.CubeSx, p.CubeSy, p.CubeSz)
	}
	if !slices.Equal(res.Kept, kept) {
		t.Fatalf("streamed phase 1 kept %+v, offline %+v", res.Kept, kept)
	}
	requireSameSelection(t, "CubeSx only", res.Cubes, offline)

	// The clamp still applies after the default: an edge larger than the
	// reference snapshot shrinks to it.
	pcfg.CubeSx = 0 // defaults to 32; Ny is 16
	res, err = Run(ctx, NewReplaySource(d), Config{Pipeline: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Pipeline; p.CubeSx != 32 || p.CubeSy != 16 || p.CubeSz != 32 {
		t.Fatalf("clamped cube %d×%d×%d, want 32×16×32", p.CubeSx, p.CubeSy, p.CubeSz)
	}
}

// TestParityProperty: for seeded random layouts — ranks, window, merge
// cadence, sharded or in-memory, several samplers — parity mode returns
// exactly what SubsampleDataset returns. With one CubeSampler per rank held
// across snapshots, this is what would catch scratch state leaking from one
// snapshot (or one cube) into the next.
func TestParityProperty(t *testing.T) {
	d := testDataset()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2024))
	methods := []string{"uips", "maxent", "lhs", "stratified", "random"}
	offline := map[string][]sampling.CubeSample{}
	for trial := 0; trial < 12; trial++ {
		pcfg := testPipelineConfig()
		pcfg.Method = methods[trial%len(methods)]
		pcfg.NumSamples = 40
		want, ok := offline[pcfg.Method]
		if !ok {
			var err error
			if want, err = sampling.SubsampleDataset(ctx, d, pcfg); err != nil {
				t.Fatal(err)
			}
			offline[pcfg.Method] = want
		}
		cfg := Config{
			Pipeline: pcfg, Ranks: 1 + rng.Intn(4), Window: 1 + rng.Intn(4),
			MergeEvery: rng.Intn(6),
		}
		sharded := rng.Intn(2) == 0
		if sharded {
			cfg.ShardPrefix = filepath.Join(t.TempDir(), "parity")
		}
		label := pcfg.Method
		res, err := Run(ctx, NewReplaySource(d), cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", label, cfg, err)
		}
		if res.PeakBuffered > cfg.Window {
			t.Fatalf("%s: peak %d buffered snapshots exceeds window %d", label, res.PeakBuffered, cfg.Window)
		}
		got := res.Cubes
		if sharded {
			got = nil
			for _, p := range res.ShardPaths {
				cubes, err := sickle.LoadCubeSamples(p)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, cubes...)
			}
			slices.SortStableFunc(got, func(a, b sampling.CubeSample) int {
				if a.Snapshot != b.Snapshot {
					return a.Snapshot - b.Snapshot
				}
				return a.Cube.ID - b.Cube.ID
			})
		}
		requireSameSelection(t, label, got, want)
	}
}

// TestReservoirOfferAllocs: the reservoir's slab is allocated with it, so an
// offer allocates nothing — while filling, when it evicts, and when it
// loses — and what it keeps is a copy, not the caller's rows.
func TestReservoirOfferAllocs(t *testing.T) {
	const budget, d, tdim = 64, 4, 1
	r := newCubeReservoir(grid.Hypercube{ID: 7}, budget, d, tdim)
	feat, tgt := make([]float64, d), make([]float64, tdim)
	next := 0
	offer := func(key float64) {
		for j := range feat {
			feat[j] = float64(next)
		}
		tgt[0] = -float64(next)
		r.offer(key, next/10, next, feat, tgt)
		next++
	}
	measure := func(what string, key func(i int) float64) {
		i := 0
		allocs := func() float64 {
			return testing.AllocsPerRun(budget/2-1, func() { offer(key(i)); i++ })
		}
		if raceEnabled {
			allocs() // still make the offers
			return
		}
		if got := allocs(); got != 0 {
			t.Fatalf("offer (%s) allocates %v objects, want 0", what, got)
		}
	}
	measure("filling", func(i int) float64 { return -float64(i) })
	for len(r.items) < budget {
		offer(-1)
	}
	measure("losing", func(int) float64 { return math.Inf(-1) })
	if len(r.items) != budget {
		t.Fatalf("reservoir holds %d items, budget %d", len(r.items), budget)
	}
	measure("winning", func(i int) float64 { return float64(i + 1) })

	// Every held item's slot carries the values offered with it, not those
	// of whatever was offered since through the same feat/tgt buffers.
	slots := map[int]bool{}
	for _, it := range r.items {
		if slots[it.slot] {
			t.Fatalf("slot %d is shared by two items", it.slot)
		}
		slots[it.slot] = true
		for _, v := range r.features(it.slot) {
			if v != float64(it.localIdx) {
				t.Fatalf("item %d: feature %v in its slot", it.localIdx, v)
			}
		}
		if got := r.targets(it.slot)[0]; got != -float64(it.localIdx) {
			t.Fatalf("item %d: target %v in its slot", it.localIdx, got)
		}
	}
}

// TestRunNilTracerAllocs: a run nobody traces builds no spans. 30 snapshots
// on 2 ranks merging every 4 is 40 spans under one trace — 41 IDs and 31
// attr maps a nil tracer used to mint and drop.
func TestRunNilTracerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d := synth.SSTDataset("SST-stream-allocs", 30, synth.StratifiedConfig{Nx: 16, Ny: 16, Nz: 16, Seed: 5})
	cfg := Config{Pipeline: testPipelineConfig(), Ranks: 2, MergeEvery: 4, ReservoirBudget: 64}
	run := func(tracer *obs.Tracer) float64 {
		cfg.Tracer = tracer
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(context.Background(), NewReplaySource(d), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	traced, untraced := run(obs.NewTracer("stream", 256)), run(nil)
	if traced-untraced < 90 {
		t.Fatalf("a nil-tracer run allocates %.0f objects, a traced one %.0f: want >= 90 fewer", untraced, traced)
	}
}
