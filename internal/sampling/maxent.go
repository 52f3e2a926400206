package sampling

import (
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/stats"
)

// MaxEnt implements the paper's phase-2 point selection (Xmaxent, §4.1):
//
//  1. cluster the points on the cluster variable (MiniBatchKMeans),
//  2. estimate each cluster's distribution of the cluster variable,
//  3. build the adjacency matrix A_ij = Σ P(C_i) log(P(C_i)/P(C_j))
//     (pairwise KL divergences, Eqs. 1-2),
//  4. node strength = row sum of A,
//  5. allocate the sample budget across clusters ∝ node strength
//     (entropy-weighted random sampling), drawing uniformly inside each.
//
// Clusters whose distribution diverges most from the rest — the rare,
// information-rich tail regions of Fig. 5 — receive proportionally more of
// the budget than their population share.
type MaxEnt struct {
	NumClusters int // default 20 (the paper's SST config)
	Meter       *energy.Meter
}

const (
	maxEntHistBins  = 100 // bins for per-cluster distributions (the paper's Fig. 5 setting)
	maxEntBatchSize = 256 // minibatch size of every k-means run the MaxEnt samplers start
	hMaxEntStride   = 8   // KCV subsampling stride of HMaxEnt's global clustering
)

// Name implements PointSampler.
func (MaxEnt) Name() string { return "maxent" }

func (m MaxEnt) defaults() MaxEnt {
	if m.NumClusters <= 0 {
		m.NumClusters = 20
	}
	return m
}

// SelectPoints implements PointSampler.
func (m MaxEnt) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	validateRequest(d, n)
	m = m.defaults()
	total := d.N()
	if n >= total {
		return allIndices(total)
	}
	kcv := d.KCV()

	// The clustering uses a fixed internal seed: it is a deterministic
	// preprocessing step, so replicate-to-replicate variation comes only
	// from the within-cluster draws. This is the mechanism behind MaxEnt's
	// reproducibility advantage over random sampling (paper §7, Fig. 6).
	res, err := cluster.KMeans(cluster.Scalar1D(kcv), cluster.Config{
		K: m.NumClusters, Seed: 12345, BatchSize: maxEntBatchSize, MaxIters: 60,
	})
	if err != nil {
		// Degenerate data; fall back to uniform selection.
		return Random{Meter: m.Meter}.SelectPoints(d, n, rng)
	}
	k := len(res.Centroids)
	members := make([][]int, k)
	for i, l := range res.Labels {
		members[l] = append(members[l], i)
	}

	strength := NodeStrengths(kcv, res.Labels, k, maxEntHistBins)

	// Entropy-weighted budget allocation across clusters, capped by
	// cluster population; leftover budget cascades to the next-strongest
	// clusters.
	counts := allocateBudget(strength, members, n)

	out := make([]int, 0, n)
	for c, take := range counts {
		if take == 0 {
			continue
		}
		for _, j := range rng.Perm(len(members[c]))[:take] {
			out = append(out, members[c][j])
		}
	}
	sort.Ints(out)
	chargeSampling(m.Meter, total, dims(d), 8) // clustering dominates
	return out
}

// NodeStrengths computes the per-cluster node strengths of Eq. 2: each
// cluster's distribution of the cluster variable is histogrammed on a
// common support, the adjacency matrix holds pairwise KL divergences, and
// the strength is the row sum. Exported because phase-1 hypercube selection
// reuses it on cube-occupancy distributions.
func NodeStrengths(kcv []float64, labels []int, k, bins int) []float64 {
	lo, hi := kcv[0], kcv[0]
	for _, x := range kcv[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	pdfs := make([][]float64, k)
	hists := make([]*stats.Histogram, k)
	for c := range hists {
		hists[c] = stats.NewHistogram(lo, hi+1e-9, bins)
	}
	for i, x := range kcv {
		hists[labels[i]].Add(x)
	}
	for c := range hists {
		pdfs[c] = hists[c].PDF()
	}
	strength := make([]float64, k)
	for i := 0; i < k; i++ {
		if hists[i].N == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			if i == j || hists[j].N == 0 {
				continue
			}
			strength[i] += stats.KLDivergence(pdfs[i], pdfs[j])
		}
	}
	return strength
}

// allocateBudget distributes n samples across clusters proportionally to
// strength, capping each cluster at its population and cascading overflow
// to the remaining strongest clusters.
func allocateBudget(strength []float64, members [][]int, n int) []int {
	k := len(strength)
	counts := make([]int, k)
	totalStrength := 0.0
	for c := range strength {
		if len(members[c]) > 0 {
			totalStrength += strength[c]
		}
	}
	remaining := n
	if totalStrength <= 0 {
		// All clusters identical: proportional to population.
		totalPop := 0
		for _, m := range members {
			totalPop += len(m)
		}
		for c := range counts {
			counts[c] = n * len(members[c]) / totalPop
			remaining -= counts[c]
		}
	} else {
		for c := range counts {
			if len(members[c]) == 0 {
				continue
			}
			want := int(float64(n) * strength[c] / totalStrength)
			if want > len(members[c]) {
				want = len(members[c])
			}
			counts[c] = want
			remaining -= want
		}
	}
	// Cascade any remainder by strength order, respecting capacity.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return strength[order[a]] > strength[order[b]] })
	for remaining > 0 {
		progress := false
		for _, c := range order {
			if remaining == 0 {
				break
			}
			if counts[c] < len(members[c]) {
				counts[c]++
				remaining--
				progress = true
			}
		}
		if !progress {
			break // budget exceeds population; give back what we can't place
		}
	}
	return counts
}

// HypercubeSelector picks which hypercubes of a snapshot to keep (phase 1).
type HypercubeSelector interface {
	Name() string
	SelectCubes(f *grid.Field, cubes []grid.Hypercube, kcvVar string, nSelect int, rng *rand.Rand) []grid.Hypercube
}

// HRandom selects hypercubes uniformly at random (the Hrandom baseline in
// the paper's Fig. 7/8 case matrix).
type HRandom struct {
	Meter *energy.Meter
}

// Name implements HypercubeSelector.
func (HRandom) Name() string { return "random" }

// SelectCubes implements HypercubeSelector.
func (h HRandom) SelectCubes(f *grid.Field, cubes []grid.Hypercube, kcvVar string, nSelect int, rng *rand.Rand) []grid.Hypercube {
	if nSelect >= len(cubes) {
		return cubes
	}
	out := make([]grid.Hypercube, 0, nSelect)
	for _, i := range rng.Perm(len(cubes))[:nSelect] {
		out = append(out, cubes[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	chargeSampling(h.Meter, nSelect, 1, 1)
	return out
}

// HMaxEnt is phase-1 MaxEnt hypercube selection (Hmaxent, §4.1 / Fig. 3):
// the cluster variable is clustered globally (MiniBatchKMeans on a strided
// subsample for tractability), each cube's cluster-occupancy distribution
// P(C_i) is computed, the Eq. 2 adjacency matrix of pairwise KLs yields node
// strengths, and cubes are drawn by entropy/strength-weighted random
// sampling without replacement.
type HMaxEnt struct {
	NumClusters int // default 5 (paper's SST-P1F100 config uses 5-20)
	Meter       *energy.Meter
}

// Name implements HypercubeSelector.
func (HMaxEnt) Name() string { return "maxent" }

// SelectCubes implements HypercubeSelector.
func (h HMaxEnt) SelectCubes(f *grid.Field, cubes []grid.Hypercube, kcvVar string, nSelect int, rng *rand.Rand) []grid.Hypercube {
	if nSelect >= len(cubes) {
		return cubes
	}
	k := h.NumClusters
	if k <= 0 {
		k = 5
	}
	kcv := f.Var(kcvVar)

	// Global clustering of the KCV on a strided subsample.
	sub := make([]float64, 0, len(kcv)/hMaxEntStride+1)
	for i := 0; i < len(kcv); i += hMaxEntStride {
		sub = append(sub, kcv[i])
	}
	res, err := cluster.KMeans(cluster.Scalar1D(sub), cluster.Config{
		K: k, Seed: 12345, BatchSize: maxEntBatchSize, MaxIters: 60,
	})
	if err != nil {
		return HRandom{Meter: h.Meter}.SelectCubes(f, cubes, kcvVar, nSelect, rng)
	}
	k = len(res.Centroids)

	// Per-cube occupancy distribution over the global clusters.
	occ := make([][]float64, len(cubes))
	for ci, cube := range cubes {
		counts := make([]float64, k)
		vals := cube.VarValues(f, kcvVar)
		labels := cluster.Assign(cluster.Scalar1D(vals), res.Centroids)
		for _, l := range labels {
			counts[l]++
		}
		occ[ci] = counts
	}

	// Node strength: row sums of pairwise KL between occupancy PDFs,
	// blended with each cube's own entropy so information-rich cubes with
	// broad occupancy also score high even when many cubes are similar.
	strength := make([]float64, len(cubes))
	for i := range cubes {
		strength[i] = stats.Entropy(occ[i])
		for j := range cubes {
			if i == j {
				continue
			}
			strength[i] += stats.KLDivergence(occ[i], occ[j]) / float64(len(cubes)-1)
		}
	}

	sel := weightedSampleWithoutReplacement(strength, nSelect, rng)
	out := make([]grid.Hypercube, 0, nSelect)
	for _, i := range sel {
		out = append(out, cubes[i])
	}
	chargeSampling(h.Meter, len(kcv)/hMaxEntStride+len(cubes)*k, 1, 8)
	return out
}
