package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// NDHistogram is a fixed-width histogram over a d-dimensional unit-scaled
// feature space. It is the density estimator behind the binned variant of
// uniform-in-phase-space (UIPS) sampling: phase-space occupancy is counted
// per cell and converted into acceptance probabilities.
//
// Only occupied cells are stored. Each gets an entry, numbered in the order
// cells were first seen, holding its integer cell id and its count; an
// open-addressed table (linear probing, power-of-two size, doubled before it
// would pass half full) maps a cell id to its entry. Entries never move
// until Reset, so the entry number AddCell returns reads the cell's count
// back with no second lookup, and Entry(0..OccupiedCells()-1) is the walk
// over the occupied cells.
type NDHistogram struct {
	Dims    int
	Bins    int // bins per dimension
	Lo, Hi  []float64
	N       int
	strides []int
	entries []cellCount // the occupied cells, in first-seen order
	slots   []int32     // table: 1 + the entry of the cell hashed there, 0 if empty
	shift   uint        // 64 − log2(len(slots)): the hash keeps the top bits
}

// cellCount is one occupied cell: its id and count, ≥ 1.
type cellCount struct{ cell, count int }

// NewNDHistogram creates a histogram with bins cells per dimension over the
// box [lo, hi) in each dimension. It panics if bins^dims overflows an int,
// the cell ids' type.
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
		if s > math.MaxInt/bins {
			panic(fmt.Sprintf("stats: %d bins in %d dimensions overflow the cell ids", bins, d))
		}
		s *= bins
	}
	h := &NDHistogram{
		Dims: d, Bins: bins,
		Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...),
		strides: strides,
	}
	h.rehash(256) // a UIPS cube or stream sketch fills hundreds of cells: skip four doublings
	return h
}

// NDHistogramFromPoints builds a histogram spanning the bounding box of pts.
func NDHistogramFromPoints(pts [][]float64, bins int) *NDHistogram {
	if len(pts) == 0 {
		panic("stats: NDHistogramFromPoints with no points")
	}
	lo, hi := ColumnBounds(pts, nil, nil)
	for j := range lo {
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

// AddCell records w ≥ 1 observations in a cell whose index the caller
// already holds (from CellIndex, or from a dense merge buffer), and returns
// the cell's entry: Entry reads its count back, without a second lookup,
// until the next Reset. It panics if N would overflow, so no count wraps.
func (h *NDHistogram) AddCell(cell, w int) int {
	if w < 1 || h.N > math.MaxInt-w {
		panic(fmt.Sprintf("stats: adding %d observations to a histogram of %d", w, h.N))
	}
	i := h.find(cell)
	k := int(h.slots[i]) - 1
	if k < 0 {
		if k = len(h.entries); 2*(k+1) > len(h.slots) {
			h.rehash(2 * len(h.slots))
			i = h.find(cell)
		}
		h.entries = append(h.entries, cellCount{cell: cell})
		h.slots[i] = int32(k + 1)
	}
	h.entries[k].count += w
	h.N += w
	return k
}

// Count returns the number of observations in cell.
func (h *NDHistogram) Count(cell int) int {
	if k := h.slots[h.find(cell)]; k > 0 {
		return h.entries[k-1].count
	}
	return 0
}

// Entry returns the cell id and count of entry k, 0 ≤ k < OccupiedCells().
func (h *NDHistogram) Entry(k int) (cell, count int) { return h.entries[k].cell, h.entries[k].count }

// find returns the table slot holding cell, or else the empty slot where it
// would go: Fibonacci hashing, then linear probing.
func (h *NDHistogram) find(cell int) int {
	mask := len(h.slots) - 1
	for i := int(uint64(cell) * 0x9e3779b97f4a7c15 >> h.shift); ; i = (i + 1) & mask {
		if k := h.slots[i]; k == 0 || h.entries[k-1].cell == cell {
			return i
		}
	}
}

// rehash rebuilds the table at size slots, a power of two, from the
// entries, and gives the entries room for as many as that table takes.
func (h *NDHistogram) rehash(size int) {
	h.slots = make([]int32, size)
	h.shift = uint(64 - bits.TrailingZeros(uint(size)))
	h.entries = slices.Grow(h.entries, size/2-len(h.entries))
	for k, e := range h.entries {
		h.slots[h.find(e.cell)] = int32(k + 1)
	}
}

// Reset empties the histogram in place. Geometry is kept, and so are the
// table and entry capacities: refilling the same cells allocates nothing,
// which is what lets a per-cube or per-merge histogram live in a scratch
// instead of being rebuilt.
func (h *NDHistogram) Reset() {
	clear(h.slots)
	h.entries = h.entries[:0]
	h.N = 0
}

// TotalCells returns the total number of cells (Bins^Dims), occupied or not.
func (h *NDHistogram) TotalCells() int { return h.strides[0] * h.Bins }

// OccupiedCells returns the number of cells with at least one sample.
func (h *NDHistogram) OccupiedCells() int { return len(h.entries) }

// UniformityIndex quantifies how uniformly a point set fills its occupied
// phase-space cells, as exp(H)/cells where H is the entropy of the cell
// occupancy distribution. 1.0 means perfectly uniform occupancy; values
// near 0 mean the samples clump into few cells. This is the scalar used to
// reproduce the paper's Fig. 4 UIPS-clumping comparison, summed in
// ascending cell order so that one set of counts always yields the same
// bits, whatever order the cells were first seen in.
func (h *NDHistogram) UniformityIndex() float64 {
	if h.N == 0 {
		return 0
	}
	sorted := slices.SortedFunc(slices.Values(h.entries), func(a, b cellCount) int { return cmp.Compare(a.cell, b.cell) })
	p := make([]float64, len(sorted))
	for i, e := range sorted {
		p[i] = float64(e.count)
	}
	hent := Entropy(p)
	// exp(H) is the perplexity: the effective number of uniformly used cells.
	return math.Exp(hent) / float64(len(p))
}
