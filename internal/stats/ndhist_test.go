package stats

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
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
	if merged.OccupiedCells() != pooled.OccupiedCells() {
		t.Fatalf("merged cells = %d, pooled cells = %d", merged.OccupiedCells(), pooled.OccupiedCells())
	}
	for k := range pooled.OccupiedCells() {
		if cell, c := pooled.Entry(k); merged.Count(cell) != c {
			t.Fatalf("cell %d: merged %d, pooled %d", cell, merged.Count(cell), c)
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
// allocates nothing — the table and its entries keep their capacity.
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
	if h.N != want.N || h.OccupiedCells() != want.OccupiedCells() {
		t.Fatalf("refill: N=%d/%d cells, want %d/%d", h.N, h.OccupiedCells(), want.N, want.OccupiedCells())
	}
	for k := range want.OccupiedCells() {
		if cell, c := want.Entry(k); h.Count(cell) != c {
			t.Fatalf("refill: cell %d holds %d, want %d", cell, h.Count(cell), c)
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
		t.Fatalf("%d occupied cells: too few for insertion order to show", h.OccupiedCells())
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

// TestNDHistogramOverflow: a geometry whose Bins^Dims cell ids would wrap
// an int panics at construction (20 bins in 15 dimensions is 3.3·10¹⁹, past
// 2⁶³), the largest that fits builds, and an add that would wrap N, or a
// non-positive weight, panics instead of corrupting a count.
func TestNDHistogramOverflow(t *testing.T) {
	box := func(d int) (lo, hi []float64) {
		lo, hi = make([]float64, d), make([]float64, d)
		for j := range hi {
			hi[j] = 1
		}
		return lo, hi
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	for _, g := range []struct{ bins, dims int }{{20, 15}, {2, 64}, {3, 40}, {math.MaxInt/2 + 1, 2}} {
		lo, hi := box(g.dims)
		panics(fmt.Sprintf("%d bins in %d dims", g.bins, g.dims), func() { NewNDHistogram(lo, hi, g.bins) })
	}
	dims := bits.UintSize - 2 // 2^dims cells: the largest power of two an int holds
	lo, hi := box(dims)
	h := NewNDHistogram(lo, hi, 2)
	if got := h.TotalCells(); got != 1<<dims {
		t.Fatalf("2 bins in %d dims: %d cells, want 2^%d", dims, got, dims)
	}
	top := make([]float64, dims)
	for j := range top {
		top[j] = 0.99
	}
	last := 1<<dims - 1
	if cell := h.CellIndex(top); cell != last || h.Count(cell) != 0 {
		t.Fatalf("top cell %d holds %d, want %d holding 0", cell, h.Count(cell), last)
	}
	h.AddCell(last, math.MaxInt-1)
	h.AddCell(0, 1)
	if h.N != math.MaxInt || h.Count(last) != math.MaxInt-1 || h.Count(0) != 1 {
		t.Fatalf("N = %d, top cell %d, cell 0 %d", h.N, h.Count(last), h.Count(0))
	}
	panics("N past MaxInt", func() { h.AddCell(0, 1) })
	panics("zero weight", func() { h.AddCell(1, 0) })
	panics("negative weight", func() { h.AddCell(1, -1) })
	if h.N != math.MaxInt || h.Count(0) != 1 || h.OccupiedCells() != 2 {
		t.Fatalf("a refused add changed the histogram: N = %d, cell 0 %d, %d cells", h.N, h.Count(0), h.OccupiedCells())
	}
}

// FuzzNDHistogram drives the cell table through any sequence of adds and
// resets, growing it as far as the input reaches, against a map[int]int
// model. dims (1-3) and bins (1-64) set the geometry; ops is read four bytes
// at a time: 0xff as the first byte resets, anything else adds 1-4
// observations to the cell the next three bytes name, modulo TotalCells.
// After every op the table must agree with the model: Count of the cell
// touched and of a cell the model does not hold, and at every reset and at
// the end, N, OccupiedCells, one walk that visits each occupied cell once
// with its count, and UniformityIndex bit for bit against the model summed
// in ascending cell order. A Reset and refill of the same adds allocates
// nothing.
func FuzzNDHistogram(f *testing.F) {
	f.Add(uint8(0), uint8(7), []byte{1, 0, 0, 3, 2, 0, 0, 5, 0xff, 0, 0, 0, 1, 0, 0, 3})
	f.Add(uint8(2), uint8(63), []byte{})
	f.Fuzz(func(t *testing.T, dims, bins uint8, ops []byte) {
		d, b := 1+int(dims%3), 1+int(bins%64)
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range hi {
			hi[j] = 1
		}
		h := NewNDHistogram(lo, hi, b)
		total := h.TotalCells()
		model := map[int]int{}
		check := func() {
			t.Helper()
			n := 0
			for _, c := range model {
				n += c
			}
			if h.N != n || h.OccupiedCells() != len(model) {
				t.Fatalf("N %d over %d cells, model %d over %d", h.N, h.OccupiedCells(), n, len(model))
			}
			seen := map[int]bool{}
			for k := range h.OccupiedCells() {
				cell, c := h.Entry(k)
				if seen[cell] || model[cell] != c {
					t.Fatalf("entry %d: cell %d holds %d (seen before: %v), model %d", k, cell, c, seen[cell], model[cell])
				}
				seen[cell] = true
			}
			var want float64
			if n > 0 {
				p := make([]float64, 0, len(model))
				for _, cell := range slices.Sorted(maps.Keys(model)) {
					p = append(p, float64(model[cell]))
				}
				want = math.Exp(Entropy(p)) / float64(len(p))
			}
			if got := h.UniformityIndex(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("UniformityIndex %v, model %v", got, want)
			}
		}
		type add struct{ cell, w int }
		var since []add // the adds since the last reset
		for i := 0; i+4 <= len(ops); i += 4 {
			if ops[i] == 0xff {
				check()
				h.Reset()
				clear(model)
				since = since[:0]
				continue
			}
			cell := (int(ops[i+1])<<16 | int(ops[i+2])<<8 | int(ops[i+3])) % total
			w := 1 + int(ops[i]%4)
			h.AddCell(cell, w)
			model[cell] += w
			since = append(since, add{cell, w})
			if got := h.Count(cell); got != model[cell] {
				t.Fatalf("op %d: cell %d holds %d, model %d", i/4, cell, got, model[cell])
			}
			if absent := (cell + 1) % total; model[absent] == 0 && h.Count(absent) != 0 {
				t.Fatalf("op %d: absent cell %d holds %d", i/4, absent, h.Count(absent))
			}
		}
		check()
		if raceEnabled {
			return
		}
		refill := func() {
			h.Reset()
			for _, a := range since {
				h.AddCell(a.cell, a.w)
			}
		}
		if got := testing.AllocsPerRun(3, refill); got != 0 {
			t.Fatalf("Reset + refill of %d adds allocates %v objects, want 0", len(since), got)
		}
		check()
	})
}
