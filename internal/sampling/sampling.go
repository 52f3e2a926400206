// Package sampling implements SICKLE's core contribution: the pluggable
// subsampling strategies of paper §4 — random, Latin hypercube, stratified,
// uniform-in-phase-space (UIPS), and the two-phase maximum-entropy (MaxEnt)
// method — together with MaxEnt hypercube selection, temporal snapshot
// selection, and the serial two-phase driver (SubsampleDataset). The
// rank-parallel driver is stream.Run, which runs the same phase 2 through
// one CubeSampler per rank worker.
//
// All point samplers consume a Data view (feature matrix + the scalar
// "K-means cluster variable" of Table 1) and return indices into it, so the
// same machinery runs on raw snapshots, extracted hypercubes, or arbitrary
// point clouds.
//
// Who owns what in phase 2: a CubeSampler owns one scratch (the gathered
// cube, the normalized copy, histogram cells, weights and draw keys), grown
// to the largest cube seen and reused for every cube and snapshot it runs
// over; a sampler reached with a bare &Data{...} builds a throw-away one. A
// CubeSample owns its memory — LocalIdx plus one slab each for Features and
// Targets, rows capped to their own values — and never aliases the scratch,
// so it may be kept, mutated or appended to freely. The weighted draw keeps
// the n largest Efraimidis-Spirakis keys, ties going to the lower index; it
// selects them (quickselect) instead of sorting all keys, which returns the
// same set because the order is total.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/energy"
)

// Data is the point-cloud view a sampler operates on.
type Data struct {
	// Features is the n×d matrix of input variables (Table 1's Input
	// column) used for phase-space methods.
	Features [][]float64
	// ClusterVar is the scalar per point driving K-means-based methods
	// (Table 1's KCV column). When nil, the first feature column is used.
	ClusterVar []float64
	// scratch is set by a CubeSampler so the sampler borrows its buffers
	// instead of allocating per cube; a bare &Data{...} leaves it nil.
	scratch *cubeScratch
}

// work returns the scratch a sampler should use for this view: the
// CubeSampler's when there is one, a throw-away otherwise.
func (d *Data) work() *cubeScratch {
	if d.scratch != nil {
		return d.scratch
	}
	return new(cubeScratch)
}

// N returns the number of points.
func (d *Data) N() int { return len(d.Features) }

// KCV returns the cluster variable, falling back to a scratch copy of column 0.
func (d *Data) KCV() []float64 {
	if d.ClusterVar != nil {
		return d.ClusterVar
	}
	sc := d.work()
	sc.kcv = grow(sc.kcv, len(d.Features))
	for i, p := range d.Features {
		sc.kcv[i] = p[0]
	}
	return sc.kcv
}

// PointSampler selects n point indices from a Data view.
type PointSampler interface {
	Name() string
	SelectPoints(d *Data, n int, rng *rand.Rand) []int
}

// chargeSampling charges m for a sampler pass that touched points×dims
// values with the given extra per-value op count.
func chargeSampling(m *energy.Meter, points, dims int, opsPerValue int64) {
	if m == nil {
		return
	}
	vals := int64(points) * int64(dims)
	m.AddFlops(vals * opsPerValue)
	m.AddBytes(vals * 8)
}

// Random selects n points uniformly without replacement — the paper's
// baseline that "performs quite well in many scenarios" (§7).
type Random struct {
	Meter *energy.Meter
}

// Name implements PointSampler.
func (Random) Name() string { return "random" }

// SelectPoints implements PointSampler.
func (r Random) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	validateRequest(d, n)
	return r.draw(d.N(), dims(d), n, rng)
}

// draw picks n of total points of the given dims, ascending.
func (r Random) draw(total, dims, n int, rng *rand.Rand) []int {
	if n >= total {
		return allIndices(total)
	}
	idx := rng.Perm(total)[:n]
	sort.Ints(idx)
	chargeSampling(r.Meter, n, dims, 1)
	return idx
}

// Full returns every point — the paper's "full" baseline (densest feasible
// hypercubes, §4).
type Full struct {
	Meter *energy.Meter
}

// Name implements PointSampler.
func (Full) Name() string { return "full" }

// SelectPoints implements PointSampler.
func (f Full) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	chargeSampling(f.Meter, d.N(), dims(d), 1)
	return allIndices(d.N())
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func dims(d *Data) int {
	if len(d.Features) == 0 {
		return 1
	}
	return len(d.Features[0])
}

// weightedKey is one item's Efraimidis-Spirakis key in the weighted draw.
type weightedKey struct {
	k   float64
	idx int
}

// before is the draw's total order: larger key first, lower index first
// among equal keys. The tie rule is what makes the selected set a function
// of (w, rng) alone, independent of how the selection partitions.
func (a weightedKey) before(b weightedKey) bool {
	return a.k > b.k || (a.k == b.k && a.idx < b.idx)
}

// selectTop reorders keys so that keys[:n] hold the n first items under
// before, in no particular order — Hoare's quickselect, O(len) expected,
// where a full sort would order all the items the draw then discards.
// Requires 0 < n <= len(keys).
func selectTop(keys []weightedKey, n int) {
	k := n - 1
	lo, hi := 0, len(keys)-1
	for lo < hi {
		pivot := keys[k]
		i, j := lo, hi
		for i <= j {
			for keys[i].before(pivot) {
				i++
			}
			for pivot.before(keys[j]) {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// weightedSample draws n distinct indices with probability proportional to
// w, using the Efraimidis-Spirakis exponential keys method: the n largest
// keys form the sample (ties go to the lower index). Zero/negative weights
// are treated as tiny but nonzero so every item remains reachable when the
// budget exceeds the positive mass. The result is ascending; the keys are
// held in the scratch, so only the returned indices are allocated.
func (sc *cubeScratch) weightedSample(w []float64, n int, rng *rand.Rand) []int {
	if n >= len(w) {
		return allIndices(len(w))
	}
	sc.keys = grow(sc.keys, len(w))
	for i, wi := range w {
		if wi <= 0 || math.IsNaN(wi) {
			wi = 1e-300
		}
		// Key = -Exp(1)/w, one draw per item in index order.
		sc.keys[i] = weightedKey{k: -rng.ExpFloat64() / wi, idx: i}
	}
	if n > 0 {
		selectTop(sc.keys, n)
	}
	var buf [512]uint64 // the picks are distinct: a zeroed bitset orders them
	picks := grow(buf[:0], (len(w)+63)/64)
	for _, key := range sc.keys[:n] {
		picks[key.idx>>6] |= 1 << (key.idx & 63)
	}
	return ascending(picks, n)
}

// validateRequest panics on nonsensical sample requests; samplers share it.
func validateRequest(d *Data, n int) {
	if n < 0 {
		panic(fmt.Sprintf("sampling: negative sample count %d", n))
	}
	if d == nil || d.N() == 0 {
		panic("sampling: empty data")
	}
}
