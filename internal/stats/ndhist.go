package stats

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// NDHistogram is a fixed-width histogram over a d-dimensional unit-scaled
// feature space. It is the density estimator behind the binned variant of
// uniform-in-phase-space (UIPS) sampling: phase-space occupancy is counted
// per cell and converted into acceptance probabilities.
type NDHistogram struct {
	Dims    int
	Bins    int // bins per dimension
	Lo, Hi  []float64
	Counts  map[int]int // sparse: cell index -> count
	N       int
	strides []int
}

// NewNDHistogram creates a histogram with bins cells per dimension over the
// box [lo, hi) in each dimension.
func NewNDHistogram(lo, hi []float64, bins int) *NDHistogram {
	if len(lo) != len(hi) || len(lo) == 0 {
		panic("stats: NDHistogram needs matching non-empty bounds")
	}
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NDHistogram needs >=1 bin, got %d", bins))
	}
	d := len(lo)
	strides := make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		strides[i] = s
		s *= bins
	}
	return &NDHistogram{
		Dims: d, Bins: bins,
		Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...),
		Counts: make(map[int]int), strides: strides,
	}
}

// NDHistogramFromPoints builds a histogram spanning the bounding box of pts.
func NDHistogramFromPoints(pts [][]float64, bins int) *NDHistogram {
	if len(pts) == 0 {
		panic("stats: NDHistogramFromPoints with no points")
	}
	d := len(pts[0])
	lo := append([]float64(nil), pts[0]...)
	hi := append([]float64(nil), pts[0]...)
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	for j := 0; j < d; j++ {
		if hi[j] == lo[j] {
			hi[j] = lo[j] + 1
		} else {
			hi[j] += (hi[j] - lo[j]) * 1e-9
		}
	}
	h := NewNDHistogram(lo, hi, bins)
	for _, p := range pts {
		h.Add(p)
	}
	return h
}

// CellIndex returns the flattened cell index of point p (clamped to range).
func (h *NDHistogram) CellIndex(p []float64) int {
	if len(p) != h.Dims {
		panic(fmt.Sprintf("stats: point dim %d, histogram dim %d", len(p), h.Dims))
	}
	idx := 0
	for j, v := range p {
		b := int(float64(h.Bins) * (v - h.Lo[j]) / (h.Hi[j] - h.Lo[j]))
		if b < 0 {
			b = 0
		}
		if b >= h.Bins {
			b = h.Bins - 1
		}
		idx += b * h.strides[j]
	}
	return idx
}

// Add records one point.
func (h *NDHistogram) Add(p []float64) { h.AddCell(h.CellIndex(p), 1) }

// AddCell records w observations in a cell whose index the caller already
// holds (from CellIndex, or from a dense merge buffer), sparing the second
// lookup a caller that also needs the cell id would otherwise pay.
func (h *NDHistogram) AddCell(cell, w int) {
	h.Counts[cell] += w
	h.N += w
}

// Reset empties the histogram in place. Geometry is kept, and so are the
// count map's buckets: refilling the same cells allocates nothing, which is
// what lets a per-cube or per-merge histogram live in a scratch instead of
// being rebuilt.
func (h *NDHistogram) Reset() {
	clear(h.Counts)
	h.N = 0
}

// TotalCells returns the total number of cells (Bins^Dims), occupied or not.
func (h *NDHistogram) TotalCells() int {
	n := 1
	for i := 0; i < h.Dims; i++ {
		n *= h.Bins
	}
	return n
}

// OccupiedCells returns the number of cells with at least one sample.
func (h *NDHistogram) OccupiedCells() int { return len(h.Counts) }

// UniformityIndex quantifies how uniformly a point set fills its occupied
// phase-space cells, as exp(H)/cells where H is the entropy of the cell
// occupancy distribution. 1.0 means perfectly uniform occupancy; values
// near 0 mean the samples clump into few cells. This is the scalar used to
// reproduce the paper's Fig. 4 UIPS-clumping comparison, summed in cell
// order so that one histogram always yields the same bits.
func (h *NDHistogram) UniformityIndex() float64 {
	if h.N == 0 || len(h.Counts) == 0 {
		return 0
	}
	p := make([]float64, 0, len(h.Counts))
	for _, cell := range slices.Sorted(maps.Keys(h.Counts)) {
		p = append(p, float64(h.Counts[cell]))
	}
	hent := Entropy(p)
	// exp(H) is the perplexity: the effective number of uniformly used cells.
	return math.Exp(hent) / float64(len(h.Counts))
}
