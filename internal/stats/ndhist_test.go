package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNDHistogramAddWeighted(t *testing.T) {
	h := NewNDHistogram([]float64{0, 0}, []float64{1, 1}, 4)
	h.AddWeighted([]float64{0.1, 0.1}, 3)
	h.AddWeighted([]float64{0.9, 0.9}, 2)
	h.AddWeighted([]float64{0.5, 0.5}, 0) // no-op
	if h.N != 5 {
		t.Fatalf("N = %d, want 5", h.N)
	}
	if got := h.Probability([]float64{0.1, 0.1}); math.Abs(got-3.0/5) > 1e-15 {
		t.Fatalf("Probability = %v, want 0.6", got)
	}
	if h.OccupiedCells() != 2 {
		t.Fatalf("occupied = %d, want 2", h.OccupiedCells())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight should panic")
		}
	}()
	h.AddWeighted([]float64{0.1, 0.1}, -1)
}

func TestNDHistogramMergeMatchesPooledAdd(t *testing.T) {
	lo, hi := []float64{-1, -1, -1}, []float64{1, 1, 1}
	rng := rand.New(rand.NewSource(42))
	pooled := NewNDHistogram(lo, hi, 5)
	parts := []*NDHistogram{
		NewNDHistogram(lo, hi, 5),
		NewNDHistogram(lo, hi, 5),
		NewNDHistogram(lo, hi, 5),
	}
	for i := 0; i < 3000; i++ {
		p := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5, rng.Float64()*2 - 1}
		pooled.Add(p)
		parts[i%3].Add(p)
	}
	merged := NewNDHistogram(lo, hi, 5)
	for _, part := range parts {
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N != pooled.N {
		t.Fatalf("merged N = %d, pooled N = %d", merged.N, pooled.N)
	}
	if len(merged.Counts) != len(pooled.Counts) {
		t.Fatalf("merged cells = %d, pooled cells = %d", len(merged.Counts), len(pooled.Counts))
	}
	for cell, c := range pooled.Counts {
		if merged.Counts[cell] != c {
			t.Fatalf("cell %d: merged %d, pooled %d", cell, merged.Counts[cell], c)
		}
	}
	if a, b := merged.UniformityIndex(), pooled.UniformityIndex(); math.Abs(a-b) > 1e-12 {
		t.Fatalf("uniformity %v vs %v", a, b)
	}
}

func TestNDHistogramMergeRejectsMismatch(t *testing.T) {
	h := NewNDHistogram([]float64{0}, []float64{1}, 4)
	if err := h.Merge(NewNDHistogram([]float64{0, 0}, []float64{1, 1}, 4)); err == nil {
		t.Fatal("dims mismatch should error")
	}
	if err := h.Merge(NewNDHistogram([]float64{0}, []float64{1}, 8)); err == nil {
		t.Fatal("bins mismatch should error")
	}
	if err := h.Merge(NewNDHistogram([]float64{0}, []float64{2}, 4)); err == nil {
		t.Fatal("bounds mismatch should error")
	}
}

func TestNDHistogramTotalCells(t *testing.T) {
	if got := NewNDHistogram([]float64{0}, []float64{1}, 4).TotalCells(); got != 4 {
		t.Fatalf("TotalCells = %d, want 4", got)
	}
	if got := NewNDHistogram([]float64{0, 0, 0}, []float64{1, 1, 1}, 5).TotalCells(); got != 125 {
		t.Fatalf("TotalCells = %d, want 125", got)
	}
}

// TestNDHistogramResetAllocs: Reset returns the histogram to its just-built state
// (same geometry, no counts), and refilling the cells it held before
// allocates nothing — the map keeps its buckets.
func TestNDHistogramResetAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([][]float64, 2000)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	h := NewNDHistogram([]float64{0, 0, 0}, []float64{1, 1, 1}, 6)
	fill := func() {
		for _, p := range pts {
			h.AddCell(h.CellIndex(p), 1)
		}
	}
	fill()
	want := NewNDHistogram([]float64{0, 0, 0}, []float64{1, 1, 1}, 6)
	for _, p := range pts {
		want.Add(p)
	}
	h.Reset()
	if h.N != 0 || h.OccupiedCells() != 0 || h.Probability(pts[0]) != 0 {
		t.Fatalf("after Reset: N=%d, %d occupied cells", h.N, h.OccupiedCells())
	}
	fill()
	if h.N != want.N || len(h.Counts) != len(want.Counts) {
		t.Fatalf("refill: N=%d/%d cells, want %d/%d", h.N, len(h.Counts), want.N, len(want.Counts))
	}
	for cell, c := range want.Counts {
		if h.Counts[cell] != c {
			t.Fatalf("refill: cell %d holds %d, want %d", cell, h.Counts[cell], c)
		}
	}
	if err := h.Merge(want); err != nil {
		t.Fatalf("geometry changed across Reset: %v", err)
	}
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	if got := testing.AllocsPerRun(20, func() { h.Reset(); fill() }); got != 0 {
		t.Fatalf("Reset + refill of the same cells allocates %v objects, want 0", got)
	}
}

// TestUniformityIndexRepeatable: the index of one histogram is the same
// bits on every call and for any insertion order of the same points (map
// order once made a 3,833-cell histogram read 15 different values over 200
// calls).
func TestUniformityIndexRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64()*0.2 + 0.5, rng.Float64(), rng.ExpFloat64() * 0.3}
	}
	lo, hi := []float64{0, 0, 0}, []float64{1, 1, 1}
	build := func(order []int) *NDHistogram {
		h := NewNDHistogram(lo, hi, 24)
		for _, i := range order {
			h.Add(pts[i])
		}
		return h
	}
	forward := make([]int, len(pts))
	for i := range forward {
		forward[i] = i
	}
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	h := build(forward)
	if h.OccupiedCells() < 1000 {
		t.Fatalf("%d occupied cells: too few for map order to show", h.OccupiedCells())
	}
	want := math.Float64bits(h.UniformityIndex())
	for call := 0; call < 100; call++ {
		if got := math.Float64bits(h.UniformityIndex()); got != want {
			t.Fatalf("call %d: %x, first call %x", call, got, want)
		}
	}
	for name, order := range map[string][]int{"reversed": reversed, "shuffled": rng.Perm(len(pts))} {
		if got := math.Float64bits(build(order).UniformityIndex()); got != want {
			t.Errorf("%s insertion: %x, forward insertion %x", name, got, want)
		}
	}
}
