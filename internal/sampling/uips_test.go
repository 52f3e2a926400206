package sampling

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// uipsRef is UIPS written the long way: a normalized n×d copy of the
// features, then CellIndex on each of its rows over the unit histogram, the
// counts in a map, and the clipped inverse-PDF weights drawn by
// weightedSampleRef. It returns every point's cell and the selection.
func uipsRef(feats [][]float64, bins, n int, rng *rand.Rand) (cells, sel []int) {
	d := len(feats[0])
	lo, hi := slices.Clone(feats[0]), slices.Clone(feats[0])
	for _, p := range feats {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	norm := make([][]float64, len(feats))
	for i, p := range feats {
		norm[i] = make([]float64, d)
		for j, v := range p {
			if r := hi[j] - lo[j]; r > 0 {
				norm[i][j] = (v - lo[j]) / r
			}
		}
	}
	ulo, uhi := make([]float64, d), make([]float64, d)
	for j := range uhi {
		uhi[j] = 1 + 1e-9
	}
	h := stats.NewNDHistogram(ulo, uhi, bins)
	counts := map[int]int{}
	cells = make([]int, len(feats))
	for i, row := range norm {
		cells[i] = h.CellIndex(row)
		counts[cells[i]]++
	}
	w := make([]float64, len(feats))
	sum := 0.0
	for i, cell := range cells {
		w[i] = 1 / (float64(counts[cell]) / float64(len(feats)))
		sum += w[i]
	}
	mean := sum / float64(len(w))
	for i := range w {
		w[i] = math.Min(w[i], uipsClipMax*mean)
	}
	return cells, weightedSampleRef(w, n, rng)
}

// TestUIPSCellsMatchReference: the cells UIPS computes straight from the
// raw rows, and the selection drawn from them, equal the normalized-copy
// reference in 1 to 6 dimensions, with constant columns (every value maps
// to 0, an all-±0 column included), ±0 at a column's minimum, values an
// ulp or two from the histogram's bin edges, duplicate rows and
// heavy-tailed values, through one scratch reused across every case as a CubeSampler
// reuses it.
func TestUIPSCellsMatchReference(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	sc := new(cubeScratch)
	for trial := 0; trial < 150; trial++ {
		d := 1 + trial%6
		size := 50 + gen.Intn(400)
		bins := []int{1, 3, 7, 20}[gen.Intn(4)]
		feats := make([][]float64, size)
		for i := range feats {
			feats[i] = make([]float64, d)
			if i > 0 && gen.Intn(5) == 0 {
				copy(feats[i], feats[gen.Intn(i)]) // duplicate row
				continue
			}
			for j := range feats[i] {
				switch (trial/6 + j) % 6 {
				case 0: // constant column
					feats[i][j] = 3.5
				case 1: // ±0 only: hi − lo is 0 too
					feats[i][j] = math.Copysign(0, float64(gen.Intn(2)*2-1))
				case 2: // ±0 at the bottom of the column
					feats[i][j] = [...]float64{0, math.Copysign(0, -1), gen.ExpFloat64()}[gen.Intn(3)]
				case 3:
					feats[i][j] = gen.NormFloat64() * 1e3
				case 4: // 0 and 3, and within an ulp or two of the scaled bin edges
					e := 3 * float64(gen.Intn(bins+1)) * (1 + 1e-9) / float64(bins)
					toward := math.Inf(1 - 2*gen.Intn(2))
					for range gen.Intn(3) {
						e = math.Nextafter(e, toward)
					}
					feats[i][j] = min(max(e, 0), 3)
					if i < 2 {
						feats[i][j] = float64(3 * i)
					}
				default:
					feats[i][j] = gen.ExpFloat64() * gen.ExpFloat64()
				}
			}
		}
		n := gen.Intn(size)
		seed := gen.Int63()
		wantCells, want := uipsRef(feats, bins, n, rand.New(rand.NewSource(seed)))
		got := UIPS{Bins: bins}.SelectPoints(&Data{Features: feats, scratch: sc}, n, rand.New(rand.NewSource(seed)))
		if len(sc.cells) != size {
			t.Fatalf("trial %d: %d cells for %d points", trial, len(sc.cells), size)
		}
		for i, k := range sc.cells {
			if cell, _ := sc.hist.Entry(k); cell != wantCells[i] {
				t.Fatalf("trial %d (d %d, %d bins): point %d in cell %d, reference %d", trial, d, bins, i, cell, wantCells[i])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (d %d, %d bins, n %d): selection %v, reference %v", trial, d, bins, n, got, want)
		}
	}
}
