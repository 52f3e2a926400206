package sampling

import (
	"math/bits"
	"math/rand"

	"repro/internal/stats"
)

// cubeScratch is the working memory of phase 2 over one cube: the gathered
// feature rows and cluster variable, and whatever the sampler needs on top
// (normalized copy, cell entries, weights, draw keys, MaxEnt's clusters). Every
// buffer grows to the largest cube seen and is reused for the next one;
// nothing in here is ever handed to a caller — a CubeSample copies it.
type cubeScratch struct {
	raw      []float64   // n×d gathered features, row-major
	rows     [][]float64 // row headers over raw: the Data.Features view
	kcv      []float64   // gathered cluster variable, or Data.KCV's copy of feature 0
	norm     []float64   // [0,1]-scaled copy of the features (lhs)
	normRows [][]float64
	lo, hi   []float64 // per-dimension min and max of the features
	row      []float64 // one point's [0,1]-scaled features (uips)
	cells    []int     // per-point histogram entry (uips)
	w        []float64 // per-point weights (uips)
	keys     []weightedKey
	hist     *stats.NDHistogram // uips density estimate, Reset per cube

	labels     []int      // per-point k-means cluster (maxent)
	start      []int      // first slot of each cluster in memberIdx
	memberIdx  []int32    // point indices grouped by cluster
	members    [][]int32  // per-cluster views over memberIdx
	pdfs       []float64  // k×maxEntHistBins per-cluster histograms
	perm       []int      // a cluster's draw permutation
	clusterRng *rand.Rand // the k-means rng, re-seeded per cube
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is too small. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ascending returns the indices set in picks in order, in a new slice of
// capacity n: what sorting distinct picks gives, without a sort's
// compares, which branch on the data and mispredict.
func ascending(picks []uint64, n int) []int {
	out := make([]int, 0, n)
	for w, word := range picks {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// normalized returns a [0,1]-scaled copy of pts held in the scratch
// (samplers must not mutate caller data). The copy is valid until the next
// call.
func (sc *cubeScratch) normalized(pts [][]float64) [][]float64 {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	sc.lo, sc.hi = stats.ColumnBounds(pts, sc.lo, sc.hi)
	sc.norm = grow(sc.norm, len(pts)*d)
	sc.normRows = grow(sc.normRows, len(pts))
	for i, p := range pts {
		row := sc.norm[i*d : (i+1)*d : (i+1)*d]
		for j, v := range p {
			row[j] = stats.UnitScale(v, sc.lo[j], sc.hi[j])
		}
		sc.normRows[i] = row
	}
	return sc.normRows
}

// unitHistogram returns the scratch's empty histogram over the normalized
// phase space [0, 1+1e-9)^dim, rebuilt only when the geometry changes.
func (sc *cubeScratch) unitHistogram(dim, bins int) *stats.NDHistogram {
	if h := sc.hist; h != nil && h.Dims == dim && h.Bins == bins {
		h.Reset()
		return h
	}
	lo, hi := make([]float64, dim), make([]float64, dim)
	for j := range hi {
		hi[j] = 1 + 1e-9
	}
	sc.hist = stats.NewNDHistogram(lo, hi, bins)
	return sc.hist
}
