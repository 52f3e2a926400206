package stats

import "fmt"

// NDHistogram operations that no program path calls any more: the streaming
// sketch merge allreduces dense count buffers and folds them in with
// AddCell, and UIPS reads its counts back by entry. They live beside the tests
// that are written against them (the Reset guard uses Merge as its
// same-geometry check and Probability as its emptiness check).

// AddWeighted records w collapsed observations at p in one update — the
// batch entry point for rank-parallel statistics, where one representative
// point stands for a whole group that landed in the same cell. w must be
// non-negative; w == 0 is a no-op.
func (h *NDHistogram) AddWeighted(p []float64, w int) {
	if w < 0 {
		panic(fmt.Sprintf("stats: negative histogram weight %d", w))
	}
	if w == 0 {
		return
	}
	h.AddCell(h.CellIndex(p), w)
}

// Merge folds other's counts into h. The two histograms must share the same
// geometry (dimensionality, bin count, and bounds); rank-parallel pipelines
// rely on this to combine per-rank sketches into a global one.
func (h *NDHistogram) Merge(other *NDHistogram) error {
	if other.Dims != h.Dims || other.Bins != h.Bins {
		return fmt.Errorf("stats: merge shape mismatch: %dd/%d bins vs %dd/%d bins",
			h.Dims, h.Bins, other.Dims, other.Bins)
	}
	for j := 0; j < h.Dims; j++ {
		if h.Lo[j] != other.Lo[j] || h.Hi[j] != other.Hi[j] {
			return fmt.Errorf("stats: merge bounds mismatch on dim %d: [%v,%v) vs [%v,%v)",
				j, h.Lo[j], h.Hi[j], other.Lo[j], other.Hi[j])
		}
	}
	for k := range other.OccupiedCells() {
		h.AddCell(other.Entry(k))
	}
	return nil
}

// Probability returns the empirical probability mass of the cell containing p.
func (h *NDHistogram) Probability(p []float64) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Count(h.CellIndex(p))) / float64(h.N)
}
