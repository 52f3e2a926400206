package stream

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// keySeed is the reservoir-key rng seed of one snapshot (mirroring the
// offline per-snapshot seeding), so the kept set does not depend on which
// rank happened to process which snapshot.
func keySeed(seed int64, snap int) int64 { return seed + int64(snap)*104729 + 1 }

// featureBounds returns the per-input-variable (lo, hi) box of the reference
// snapshot, padded like stats.NDHistogramFromPoints so the max value stays
// inside the last cell. All ranks build their sketches over these shared
// bounds, which is what makes the periodic minimpi merges well-defined;
// later snapshots that drift outside the box are clamped to the edge cells
// (NDHistogram.CellIndex clamps).
func featureBounds(f *grid.Field, inVars []string) (lo, hi []float64) {
	lo = make([]float64, len(inVars))
	hi = make([]float64, len(inVars))
	for j, name := range inVars {
		v := f.Var(name)
		// Each chunk's min/max is fixed by its bounds, and merging them under
		// below gives the same bits in any order, so the scan over a
		// snapshot-sized variable fans out across the kernel pool.
		l, h := v[0], v[0]
		var mu sync.Mutex
		tensor.DefaultPool().ParallelFor(len(v), len(v), func(p0, p1 int) {
			cl, ch := stats.MinMax(v[p0:p1])
			mu.Lock()
			if below(cl, l) {
				l = cl
			}
			if below(h, ch) {
				h = ch
			}
			mu.Unlock()
		})
		if h == l {
			h = l + 1
		} else {
			h += (h - l) * 1e-9
		}
		lo[j], hi[j] = l, h
	}
	return lo, hi
}

// below is <, except that −0 is below +0: a total order on the non-NaN
// values, so a min or max of the chunks' partials under it is the same
// bits whichever chunk is merged first.
func below(a, b float64) bool { return a < b || a == b && math.Signbit(a) && !math.Signbit(b) }

// maxDenseCells bounds the dense buffer a sketch merge allreduces: 2^20
// cells = 8 MiB of float64 per rank per merge, well within the pipeline's
// memory story.
const maxDenseCells = 1 << 20

// sketchBins is the per-dimension bin count of the online feature sketch,
// before effectiveBins shrinks it to the dense-merge budget.
const sketchBins = 8

// effectiveBins shrinks the per-dimension bin count until bins^dims fits the
// dense-merge budget, so high-dimensional feature spaces cannot blow up the
// collective. Sources whose dimensionality cannot fit even at 2 bins per
// dimension are rejected outright rather than silently over-allocating.
func effectiveBins(bins, dims int) (int, error) {
	fits := func(b int) bool {
		cells := 1
		for i := 0; i < dims; i++ {
			cells *= b
			if cells > maxDenseCells {
				return false
			}
		}
		return true
	}
	for bins > 2 && !fits(bins) {
		bins--
	}
	if !fits(bins) {
		return 0, fmt.Errorf("stream: %d feature dimensions exceed the sketch-merge budget (2^%d cells > %d)",
			dims, dims, maxDenseCells)
	}
	return bins, nil
}

// invDensityWeight is the streaming UIPS weight of point p: total mass over
// the mass of p's cell, estimated from the rank's merged global sketch plus
// its unmerged local delta. Rarely-seen phase-space regions get large
// weights, so the budgeted reservoir keeps them preferentially — the
// incremental analogue of the offline inverse-PDF acceptance.
func invDensityWeight(global, delta *stats.NDHistogram, p []float64) float64 {
	n := global.N + delta.N
	if n == 0 {
		return 1
	}
	cell := global.CellIndex(p)
	c := global.Count(cell) + delta.Count(cell)
	if c <= 0 {
		c = 1
	}
	return float64(n) / float64(c)
}

// resItem is one candidate point held by a budgeted reservoir; its values
// live in the reservoir's slab at slot.
type resItem struct {
	key      float64 // Efraimidis-Spirakis key (-Exp(1)/w); larger wins
	snap     int
	localIdx int
	slot     int
}

// cubeReservoir maintains at most budget points per hypercube across the
// whole stream, using weighted reservoir sampling (A-Res with the same
// -Exp(1)/w keys as sampling's weighted draw, weightedSample): the kept set
// is the budget-many largest keys seen so far, maintained as a min-heap so
// each offer is O(log budget). The reservoir owns its items' values: one
// budget×(d+t) slab allocated with it, a slot per item, so an offer copies
// into a slot and never allocates.
type cubeReservoir struct {
	cube   grid.Hypercube
	budget int
	d, t   int       // features and targets per point
	items  []resItem // min-heap on key
	slab   []float64 // slot s holds features then targets at s·(d+t)
}

func newCubeReservoir(cube grid.Hypercube, budget, d, t int) *cubeReservoir {
	return &cubeReservoir{cube: cube, budget: budget, d: d, t: t,
		items: make([]resItem, 0, budget), slab: make([]float64, budget*(d+t))}
}

func (r *cubeReservoir) features(slot int) []float64 {
	return r.slab[slot*(r.d+r.t):][:r.d]
}

func (r *cubeReservoir) targets(slot int) []float64 {
	return r.slab[slot*(r.d+r.t)+r.d:][:r.t]
}

// offer considers one candidate; it is kept iff its key beats the current
// minimum (or the reservoir is not yet full), taking the evicted item's
// slot. features and targets are copied, never retained.
func (r *cubeReservoir) offer(key float64, snap, localIdx int, features, targets []float64) {
	it := resItem{key: key, snap: snap, localIdx: localIdx}
	switch {
	case len(r.items) < r.budget:
		it.slot = len(r.items)
		r.items = append(r.items, it)
		r.siftUp(len(r.items) - 1)
	case r.budget == 0 || key <= r.items[0].key:
		return
	default:
		it.slot = r.items[0].slot
		r.items[0] = it
		r.siftDown(0)
	}
	copy(r.features(it.slot), features)
	copy(r.targets(it.slot), targets)
}

func (r *cubeReservoir) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.items[parent].key <= r.items[i].key {
			return
		}
		r.items[parent], r.items[i] = r.items[i], r.items[parent]
		i = parent
	}
}

func (r *cubeReservoir) siftDown(i int) {
	n := len(r.items)
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && r.items[l].key < r.items[small].key {
			small = l
		}
		if rr < n && r.items[rr].key < r.items[small].key {
			small = rr
		}
		if small == i {
			return
		}
		r.items[i], r.items[small] = r.items[small], r.items[i]
		i = small
	}
}

// flushReservoirs converts the surviving reservoir contents back into
// CubeSamples grouped per (snapshot, cube), ordered like the offline
// pipeline output (snapshot-major, then cube ID, then local index). Each
// sample gets slabs of its own, copied out of the reservoir's slots. It
// consumes the reservoirs: their heaps are re-sorted in place.
func flushReservoirs(reservoirs map[int]*cubeReservoir) []sampling.CubeSample {
	var out []sampling.CubeSample
	for _, r := range reservoirs {
		slices.SortFunc(r.items, func(a, b resItem) int {
			return cmp.Or(cmp.Compare(a.snap, b.snap), cmp.Compare(a.localIdx, b.localIdx))
		})
		for lo := 0; lo < len(r.items); {
			hi := lo + 1
			for hi < len(r.items) && r.items[hi].snap == r.items[lo].snap {
				hi++
			}
			group := r.items[lo:hi]
			cs := sampling.CubeSample{Snapshot: group[0].snap, Cube: r.cube,
				LocalIdx: make([]int, len(group)),
				Features: sampling.SlabRows(len(group), r.d),
				Targets:  sampling.SlabRows(len(group), r.t)}
			for p, it := range group {
				cs.LocalIdx[p] = it.localIdx
				copy(cs.Features[p], r.features(it.slot))
				copy(cs.Targets[p], r.targets(it.slot))
			}
			out = append(out, cs)
			lo = hi
		}
	}
	slices.SortFunc(out, func(a, b sampling.CubeSample) int {
		return cmp.Or(cmp.Compare(a.Snapshot, b.Snapshot), cmp.Compare(a.Cube.ID, b.Cube.ID))
	})
	return out
}
