package sampling

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/energy"
)

// LHS adapts Latin hypercube sampling to subset selection: it generates an
// n-point Latin hypercube design in the normalized feature space and picks
// the nearest unused data point to each design site. This gives the
// one-dimensional stratification guarantee of LHS over whatever region the
// data occupies.
type LHS struct {
	Meter *energy.Meter
}

// Name implements PointSampler.
func (LHS) Name() string { return "lhs" }

// SelectPoints implements PointSampler.
func (l LHS) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	validateRequest(d, n)
	total := d.N()
	if n >= total {
		return allIndices(total)
	}
	pts := d.work().normalized(d.Features)
	dim := len(pts[0])

	// Latin hypercube design: each dimension is an independent permutation
	// of the n strata with a uniform jitter inside each stratum.
	design := make([][]float64, n)
	for s := range design {
		design[s] = make([]float64, dim)
	}
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for s := 0; s < n; s++ {
			design[s][j] = (float64(perm[s]) + rng.Float64()) / float64(n)
		}
	}

	used := make([]bool, total)
	out := make([]int, 0, n)
	for _, site := range design {
		best, bestD := -1, math.MaxFloat64
		for i, p := range pts {
			if used[i] {
				continue
			}
			dd := 0.0
			for j := range site {
				diff := p[j] - site[j]
				dd += diff * diff
			}
			if dd < bestD {
				best, bestD = i, dd
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, best)
		}
	}
	sort.Ints(out)
	chargeSampling(l.Meter, total*n/64+n, dim, 2) // nearest-site scan cost
	return out
}
