package sampling

import (
	"math/rand"

	"repro/internal/energy"
	"repro/internal/stats"
)

// UIPS implements uniform-in-phase-space selection (Hassanaly et al. 2023)
// in the binned variant the paper adopted: the joint feature PDF is
// estimated with a fixed-width histogram over the normalized phase space,
// and each point is weighted by 1/p̂(x), clipped at uipsClipMax times the
// mean weight, so that the selection covers phase space approximately
// uniformly. Exactly n points are drawn without replacement with
// probability ∝ weight, by Efraimidis–Spirakis keys (weightedSample).
//
// The paper's Fig. 4 behaviour — good uniformity in 2-D, clumping on 3-D
// anisotropic data — emerges from the binning: in higher dimension with
// strongly correlated features most cells are empty or singletons, so the
// inverse-PDF weights saturate at the clip value.
type UIPS struct {
	Bins  int // histogram bins per dimension, default 20
	Meter *energy.Meter
}

// uipsClipMax caps a point's inverse-PDF weight relative to the mean weight.
const uipsClipMax = 1e4

// Name implements PointSampler.
func (UIPS) Name() string { return "uips" }

// SelectPoints implements PointSampler.
func (u UIPS) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	validateRequest(d, n)
	total := d.N()
	if n >= total {
		return allIndices(total)
	}
	bins := u.Bins
	if bins <= 0 {
		bins = 20
	}
	sc := d.work()
	sc.lo, sc.hi = stats.ColumnBounds(d.Features, sc.lo, sc.hi)
	sc.row = grow(sc.row, len(sc.lo))
	lo, hi, row := sc.lo, sc.hi, sc.row
	h := sc.unitHistogram(len(lo), bins)
	// Each point's cell comes straight from its raw row, scaled as LHS's
	// normalized copy is; its entry reads the final count back.
	sc.cells = grow(sc.cells, total)
	for i, p := range d.Features {
		for j, v := range p {
			row[j] = stats.UnitScale(v, lo[j], hi[j])
		}
		sc.cells[i] = h.AddCell(h.CellIndex(row), 1)
	}
	sc.w = grow(sc.w, total)
	w := sc.w
	for i, k := range sc.cells {
		_, c := h.Entry(k)
		w[i] = 1 / (float64(c) / float64(h.N))
	}
	// Weights are clipped relative to the mean weight, summed in point
	// order.
	sum := 0.0
	for _, wi := range w {
		sum += wi
	}
	mean := sum / float64(total)
	for i := range w {
		if w[i] > uipsClipMax*mean {
			w[i] = uipsClipMax * mean
		}
	}
	out := sc.weightedSample(w, n, rng)
	chargeSampling(u.Meter, total, dims(d), 4)
	return out
}
