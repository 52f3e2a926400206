package sampling

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/synth"
)

// weightedSampleRef is the draw's specification: the same keys in the same
// rng order, then a full sort under (key desc, idx asc) and the first n —
// what weightedSampleWithoutReplacement computed before it selected instead
// of sorting, with the tie rule made explicit.
func weightedSampleRef(w []float64, n int, rng *rand.Rand) []int {
	if n >= len(w) {
		return allIndices(len(w))
	}
	keys := make([]weightedKey, len(w))
	for i, wi := range w {
		if wi <= 0 || math.IsNaN(wi) {
			wi = 1e-300
		}
		keys[i] = weightedKey{k: -rng.ExpFloat64() / wi, idx: i}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].before(keys[b]) })
	out := make([]int, n)
	for i := range out {
		out[i] = keys[i].idx
	}
	sort.Ints(out)
	return out
}

// TestWeightedSampleMatchesReference compares the selection against the
// full sort on randomized (w, n, seed): all-equal, zero, negative, NaN,
// infinite (every key ties at -0) and clipped weights, and the n values at
// both edges of the range. Both sides must also leave the rng in the same
// state.
func TestWeightedSampleMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(42))
	weights := func(size, kind int) []float64 {
		w := make([]float64, size)
		for i := range w {
			switch kind {
			case 0: // smooth
				w[i] = gen.Float64()
			case 1: // all equal
				w[i] = 1
			case 2: // mostly zero or negative
				if gen.Intn(4) == 0 {
					w[i] = gen.Float64()
				} else {
					w[i] = -float64(gen.Intn(2))
				}
			case 3: // NaN and Inf mixed in
				switch gen.Intn(5) {
				case 0:
					w[i] = math.NaN()
				case 1:
					w[i] = math.Inf(1)
				default:
					w[i] = gen.ExpFloat64()
				}
			case 4: // clipped: heavy ties at the cap, like saturated UIPS weights
				w[i] = math.Min(gen.ExpFloat64()*10, 4)
			case 5: // all infinite: every key is -0, the tie rule decides alone
				w[i] = math.Inf(1)
			}
		}
		return w
	}
	sc := new(cubeScratch) // reused throughout, as a CubeSampler would
	cases := 0
	for trial := 0; trial < 400; trial++ {
		size := 1 + gen.Intn(300)
		w := weights(size, trial%6)
		for _, n := range []int{0, 1, size / 3, size - 1, size, size + 1} {
			seed := gen.Int63()
			rngRef, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := weightedSampleRef(w, n, rngRef)
			got := sc.weightedSample(w, n, rngGot)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (kind %d, size %d, n %d): selection %v, reference %v",
					trial, trial%6, size, n, got, want)
			}
			if rngRef.Int63() != rngGot.Int63() {
				t.Fatalf("trial %d: rng streams diverged after the draw", trial)
			}
			cases++
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d cases compared", cases)
	}
}

func scratchTestSampler(t testing.TB, method string) (*CubeSampler, *grid.Dataset, []grid.Hypercube) {
	t.Helper()
	d := smallSST(t, 2)
	cfg := PipelineConfig{
		Hypercubes: "random", Method: method,
		NumHypercubes: 4, NumSamples: 410, CubeSx: 16,
		NumClusters: 4, Seed: 3,
	}
	kept, err := SelectCubesForDataset(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCubeSampler(cfg, d.InputVars, d.OutputVars, d.ClusterVar)
	if err != nil {
		t.Fatal(err)
	}
	return s, d, kept
}

// TestCubeSampleOwnsItsMemory: a returned CubeSample must survive both the
// caller scribbling over it and the sampler moving on — nothing in it may
// alias the scratch, a neighbouring row, or the field.
func TestCubeSampleOwnsItsMemory(t *testing.T) {
	for _, method := range []string{"uips", "lhs", "maxent", "random", "full"} {
		s, d, kept := scratchTestSampler(t, method)
		ctx := context.Background()
		first, err := s.SampleField(ctx, d.Snapshots[0], 0, kept[:1])
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() CubeSample { // an independent sampler's view of the same cube
			s2, _, _ := scratchTestSampler(t, method)
			out, err := s2.SampleField(ctx, d.Snapshots[0], 0, kept[:1])
			if err != nil {
				t.Fatal(err)
			}
			return out[0]
		}
		want := fresh()

		// The sampler moves on to other cubes and another snapshot.
		if _, err := s.SampleField(ctx, d.Snapshots[1], 1, kept); err != nil {
			t.Fatal(err)
		}
		cs := first[0]
		if hashCubeSamples([]CubeSample{cs}) != hashCubeSamples([]CubeSample{want}) {
			t.Fatalf("%s: sample changed while the sampler processed later cubes", method)
		}
		for _, rows := range [][][]float64{cs.Features, cs.Targets} {
			for r, row := range rows {
				if cap(row) != len(row) {
					t.Fatalf("%s: row %d has cap %d > len %d: an append would write into its neighbour",
						method, r, cap(row), len(row))
				}
			}
		}

		// The caller scribbles over every value it was handed; neither the
		// field nor the sampler's next result may notice.
		for _, rows := range [][][]float64{cs.Features, cs.Targets} {
			for _, row := range rows {
				for v := range row {
					row[v] = math.NaN()
				}
			}
		}
		for i := range cs.LocalIdx {
			cs.LocalIdx[i] = -1
		}
		again, err := s.SampleField(ctx, d.Snapshots[0], 0, kept[:1])
		if err != nil {
			t.Fatal(err)
		}
		if hashCubeSamples(again) != hashCubeSamples([]CubeSample{want}) {
			t.Fatalf("%s: mutating a returned sample changed the sampler's next result", method)
		}
	}
}

// TestCubeSamplerAllocs: after one warm-up cube has sized the scratch, a
// uips cube of 16³ × 4 variables → 410 points allocates only what it hands
// out: LocalIdx plus a slab and a row table each for Features and Targets.
func TestCubeSamplerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, d, kept := scratchTestSampler(t, "uips")
	f := d.Snapshots[0]
	s.SampleField(context.Background(), f, 0, kept[:1]) // binds f, sizes the scratch
	i := 0
	got := testing.AllocsPerRun(50, func() {
		cs := s.sampleCube(f, 0, kept[i%len(kept)])
		if len(cs.LocalIdx) != 410 {
			t.Fatalf("selected %d points, want 410", len(cs.LocalIdx))
		}
		i++
	})
	if got > 8 {
		t.Fatalf("a warm uips cube allocates %v objects, want <= 8", got)
	}
}

// TestMaxEntCubeAllocs: a warm Xmaxent cube of 16³ → 410 points at the
// default k = 20 holds its labels, clusters, histograms, permutation and
// k-means rng in the scratch, so it allocates only the k-means centroids
// and seeding distances, the budget split and the CubeSample. (Per-cube
// members, histograms, Perm slices and rng source cost 283 objects.) With
// a memo that already holds the cube's clustering nothing is gathered:
// only the budget split, the draw and the CubeSample are left, <= 9
// objects.
func TestMaxEntCubeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		memo  bool
		limit float64
	}{{false, 24}, {true, 9}} {
		s, d, kept := scratchTestSampler(t, "maxent")
		s.psel = MaxEnt{}
		f := d.Snapshots[0]
		if tc.memo {
			s.cfg.Memo = NewMemo(d)
		}
		s.SampleField(context.Background(), f, 0, kept) // binds f, sizes the scratch, fills the memo
		i := 0
		got := testing.AllocsPerRun(50, func() {
			cs := s.sampleCube(f, 0, kept[i%len(kept)])
			if len(cs.LocalIdx) != 410 {
				t.Fatalf("selected %d points, want 410", len(cs.LocalIdx))
			}
			i++
		})
		if got > tc.limit {
			t.Fatalf("a warm maxent cube (memo %v) allocates %v objects, want <= %v", tc.memo, got, tc.limit)
		}
	}
}

// TestHMaxEntAllocs: phase 1 over GESTS-8192 small clusters the strided
// cluster variable once and counts each cube's occupancy straight from the
// field, so it allocates the strided copy, the k-means working set and one
// occupancy slab, whatever the number of cubes: 64 cubes of 16³ and 512 of
// 8³ cost the same objects. (Re-labelling every cube as one-element slices
// cost 409 objects and 14 MiB per call for the 64 cubes.) Through a memo
// that holds the tiling's strengths, only the tiling, the draw and its
// keys are left: <= 8 objects and <= 64 KiB, the tiling most of them.
func TestHMaxEntAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := synth.GESTSDataset("GESTS-8192", synth.IsotropicConfig{N: 64, Seed: 19, KPeak: 6})
	f := d.Snapshots[0]
	measure := func(run func()) (objs, kib float64) {
		run()
		objs = testing.AllocsPerRun(10, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			run()
		}
		runtime.ReadMemStats(&after)
		return objs, float64(after.TotalAlloc-before.TotalAlloc) / 10 / 1024
	}
	var objs []float64
	for _, edge := range []int{16, 8} {
		cubes := grid.Tile(f, edge, edge, edge)
		rng := rand.New(rand.NewSource(1))
		got, kib := measure(func() {
			if kept := (HMaxEnt{}).SelectCubes(f, cubes, "enstrophy", 8, rng); len(kept) != 8 {
				t.Fatalf("kept %d cubes, want 8", len(kept))
			}
		})
		if got > 40 || kib > 1024 {
			t.Fatalf("%d cubes: %v objects and %.0f KiB per call, want <= 40 and <= 1024 KiB", len(cubes), got, kib)
		}
		objs = append(objs, got)

		cfg := PipelineConfig{Hypercubes: "maxent", NumHypercubes: 8, CubeSx: edge, Memo: NewMemo(d)}
		got, kib = measure(func() {
			if kept, err := SelectCubesForField(context.Background(), f, "enstrophy", cfg); err != nil || len(kept) != 8 {
				t.Fatalf("kept %d cubes (%v), want 8", len(kept), err)
			}
		})
		if got > 8 || kib > 64 {
			t.Fatalf("%d cubes through a warm memo: %v objects and %.0f KiB per call, want <= 8 and <= 64 KiB", len(cubes), got, kib)
		}
	}
	if objs[0] != objs[1] {
		t.Fatalf("64 cubes allocate %v objects, 512 cubes %v: the count grows with the cubes", objs[0], objs[1])
	}
}
