package sampling

import (
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/tensor"
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
	maxEntHistBins = 100 // bins for per-cluster distributions (the paper's Fig. 5 setting)
	hMaxEntStride  = 8   // KCV subsampling stride of HMaxEnt's global clustering
)

// maxEntKMeans is the MiniBatchKMeans both MaxEnt phases start with. Its
// seed is fixed, so replicate-to-replicate variation comes only from the
// draws that follow: the mechanism behind MaxEnt's reproducibility
// advantage over random sampling (paper §7, Fig. 6).
func maxEntKMeans(xs []float64, k int, rng *rand.Rand, labels []int) ([]float64, error) {
	return cluster.KMeans1D(xs, cluster.Config{K: k, Seed: 12345, BatchSize: 256, MaxIters: 60}, rng, labels)
}

// Name implements PointSampler.
func (MaxEnt) Name() string { return "maxent" }

// clustering is Xmaxent's seed-independent answer for one cube: the points
// of each cluster, ascending, and each cluster's node strength. members is
// empty when the k-means found the cube degenerate.
type clustering struct {
	members  [][]int32
	strength []float64
}

// SelectPoints implements PointSampler.
func (m MaxEnt) SelectPoints(d *Data, n int, rng *rand.Rand) []int {
	validateRequest(d, n)
	total := d.N()
	if n >= total {
		return allIndices(total)
	}
	kcv, sc := d.KCV(), d.work()
	return m.draw(sc.cluster(kcv, m.NumClusters), total, dims(d), n, rng, sc)
}

// draw is Xmaxent's seeded part, the same over a fresh clustering and a
// memoised one: n of the total points, allocated across the clusters by
// strength and drawn uniformly inside each, ascending.
func (m MaxEnt) draw(c clustering, total, dims, n int, rng *rand.Rand, sc *cubeScratch) []int {
	if len(c.members) == 0 {
		// Degenerate data; fall back to uniform selection.
		return Random{Meter: m.Meter}.draw(total, dims, n, rng)
	}

	// Entropy-weighted budget allocation across clusters, capped by
	// cluster population; leftover budget cascades to the next-strongest
	// clusters.
	counts := allocateBudget(c.strength, c.members, n)

	// The picks are distinct (clusters partition the cube, each drawn
	// without replacement): a stack bitset, up to a 32³ cube, orders them.
	// It starts zeroed, as buf is fresh and grow's make zeroes.
	var buf [512]uint64
	picks := grow(buf[:0], (total+63)/64)
	for i, take := range counts {
		if take == 0 {
			continue
		}
		for _, j := range sc.permutation(len(c.members[i]), rng)[:take] {
			m := c.members[i][j]
			picks[m>>6] |= 1 << (m & 63)
		}
	}
	out := ascending(picks, n)
	chargeSampling(m.Meter, total, dims, 8) // clustering dominates
	return out
}

// cluster is Xmaxent's seed-independent work on a cube's cluster variable:
// the fixed-seed k-means, the points grouped by cluster and the clusters'
// node strengths (k ≤ 0 means 20). The members are views of sc.
func (sc *cubeScratch) cluster(kcv []float64, k int) clustering {
	if k <= 0 {
		k = 20
	}
	if sc.clusterRng == nil {
		sc.clusterRng = rand.New(rand.NewSource(0)) // re-seeded by every run
	}
	sc.labels = grow(sc.labels, len(kcv))
	cents, err := maxEntKMeans(kcv, k, sc.clusterRng, sc.labels)
	if err != nil {
		return clustering{}
	}
	members := sc.groupByCluster(sc.labels, len(cents))
	return clustering{members: members, strength: sc.nodeStrengths(kcv, members)}
}

// own copies the members of a clustering of total points out of the
// scratch they view, so the memo can keep it; the strengths are its own.
func (c clustering) own(total int) clustering {
	idx, members := make([]int32, 0, total), make([][]int32, len(c.members))
	for i, m := range c.members {
		idx = append(idx, m...)
		members[i] = idx[len(idx)-len(m) : len(idx) : len(idx)]
	}
	return clustering{members, c.strength}
}

// groupByCluster returns the points of each of the k clusters, in
// ascending index order: a counting sort of the labels into the scratch.
func (sc *cubeScratch) groupByCluster(labels []int, k int) [][]int32 {
	start := grow(sc.start, k+1)
	clear(start)
	for _, l := range labels {
		start[l+1]++
	}
	idx, members := grow(sc.memberIdx, len(labels)), grow(sc.members, k)
	for c := range members {
		start[c+1] += start[c]
		members[c] = idx[start[c]:start[c]:start[c+1]]
	}
	for i, l := range labels {
		members[l] = append(members[l], int32(i))
	}
	sc.start, sc.memberIdx, sc.members = start, idx, members
	return members
}

// nodeStrengths computes the per-cluster node strengths of Eq. 2: each
// cluster's distribution of the cluster variable is histogrammed on a
// common support, in one k×maxEntHistBins slab of the scratch, the
// adjacency matrix holds pairwise KL divergences, and the strength is the
// row sum.
func (sc *cubeScratch) nodeStrengths(kcv []float64, members [][]int32) []float64 {
	lo, hi := stats.MinMax(kcv)
	if hi == lo {
		hi = lo + 1
	}
	sc.pdfs = grow(sc.pdfs, len(members)*maxEntHistBins)
	clear(sc.pdfs)
	pdf := func(c int) []float64 { return sc.pdfs[c*maxEntHistBins : (c+1)*maxEntHistBins] }
	for c, mem := range members {
		row := pdf(c)
		for _, i := range mem { // the bins of stats.NewHistogram(lo, hi+1e-9, maxEntHistBins)
			b := int(float64(maxEntHistBins) * (kcv[i] - lo) / (hi + 1e-9 - lo))
			row[min(max(b, 0), maxEntHistBins-1)]++
		}
		inv := 1 / float64(len(mem)) // an empty cluster's row is never read
		for b := range row {
			row[b] *= inv
		}
	}
	strength := make([]float64, len(members))
	for i, mi := range members {
		if len(mi) == 0 {
			continue
		}
		for j, mj := range members {
			if i == j || len(mj) == 0 {
				continue
			}
			strength[i] += stats.KLDivergence(pdf(i), pdf(j))
		}
	}
	return strength
}

// permutation is rng.Perm(n) held in the scratch: the same rng.Intn(i+1)
// draws in the same order, so the same permutation.
func (sc *cubeScratch) permutation(n int, rng *rand.Rand) []int {
	sc.perm = grow(sc.perm, n)
	for i := range sc.perm {
		j := rng.Intn(i + 1)
		sc.perm[i], sc.perm[j] = sc.perm[j], i
	}
	return sc.perm
}

// allocateBudget distributes n samples across clusters proportionally to
// strength, capping each cluster at its population and cascading overflow
// to the remaining strongest clusters.
func allocateBudget(strength []float64, members [][]int32, n int) []int {
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
			want := min(int(float64(n)*strength[c]/totalStrength), len(members[c]))
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
	memo        *Memo // keeps the strengths per tiling; set by SelectCubesForField
}

// Name implements HypercubeSelector.
func (HMaxEnt) Name() string { return "maxent" }

// cubeStrengths is Hmaxent's seed-independent answer over one tiling: each
// cube's strength (nil when the field is degenerate) and the clusters' count.
type cubeStrengths struct {
	strength []float64
	k        int
}

// SelectCubes implements HypercubeSelector.
func (h HMaxEnt) SelectCubes(f *grid.Field, cubes []grid.Hypercube, kcvVar string, nSelect int, rng *rand.Rand) []grid.Hypercube {
	if nSelect >= len(cubes) {
		return cubes
	}
	st := h.strengths(f, cubes, kcvVar)
	if st.strength == nil {
		// Degenerate field; fall back to uniform selection.
		return HRandom{Meter: h.Meter}.SelectCubes(f, cubes, kcvVar, nSelect, rng)
	}
	sel := new(cubeScratch).weightedSample(st.strength, nSelect, rng)
	out := make([]grid.Hypercube, 0, nSelect)
	for _, i := range sel {
		out = append(out, cubes[i])
	}
	chargeSampling(h.Meter, len(f.Var(kcvVar))/hMaxEntStride+len(cubes)*st.k, 1, 8)
	return out
}

// strengths is phase 1's seed-independent work: the global clustering of
// the cluster variable, each cube's occupancy and the KL strengths they
// give. With a memo, h takes them from it or computes them without one and
// stores them; the cubes are a whole tiling of f (grid.Tile), so the first
// names its geometry.
func (h HMaxEnt) strengths(f *grid.Field, cubes []grid.Hypercube, kcvVar string) cubeStrengths {
	if memo, c := h.memo, cubes[0]; memo != nil {
		h.memo = nil
		return memoize(memo, memoKey{tiling{f, kcvVar, h.NumClusters, c.Sx, c.Sy, c.Sz}, wholeTiling}, func() (cubeStrengths, int64) {
			st := h.strengths(f, cubes, kcvVar)
			return st, 8 * int64(len(st.strength))
		})
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
	cents, err := maxEntKMeans(sub, k, rand.New(rand.NewSource(0)), nil)
	if err != nil {
		return cubeStrengths{}
	}
	k = len(cents)

	// Per-cube occupancy over the global clusters, counted straight from
	// the field column in sampleCube's walk. Every cube fills only its own
	// row of occ, so the fan-out is bit-identical to a serial loop.
	occ := make([]float64, len(cubes)*k)
	row := func(i int) []float64 { return occ[i*k : (i+1)*k] }
	tensor.DefaultPool().ParallelFor(len(cubes), len(kcv)*k, func(lo, hi int) { // the cubes tile f
		for ci := lo; ci < hi; ci++ {
			c, counts := cubes[ci], row(ci)
			for z := c.K0; z < c.K0+c.Sz; z++ {
				for y := c.J0; y < c.J0+c.Sy; y++ {
					base := (z*f.Ny+y)*f.Nx + c.I0
					for i := base; i < base+c.Sx; i++ {
						counts[cluster.Nearest(kcv[i:i+1], cents)]++
					}
				}
			}
		}
	})

	// Node strength: row sums of pairwise KL between occupancy PDFs,
	// blended with each cube's own entropy so information-rich cubes with
	// broad occupancy also score high even when many cubes are similar.
	strength := make([]float64, len(cubes))
	for i := range cubes {
		strength[i] = stats.Entropy(row(i))
		for j := range cubes {
			if i == j {
				continue
			}
			strength[i] += stats.KLDivergence(row(i), row(j)) / float64(len(cubes)-1)
		}
	}
	return cubeStrengths{strength, k}
}
