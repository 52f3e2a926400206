package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/stats"
)

// gaussData builds an n-point 2-feature dataset whose first feature is
// N(0,1) — heavy center, thin tails — with the same scalar as KCV.
func gaussData(n int, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	feats := make([][]float64, n)
	kcv := make([]float64, n)
	for i := range feats {
		x := rng.NormFloat64()
		feats[i] = []float64{x, rng.Float64()}
		kcv[i] = x
	}
	return &Data{Features: feats, ClusterVar: kcv}
}

func col(d *Data, idx []int, j int) []float64 {
	out := make([]float64, len(idx))
	for r, i := range idx {
		out[r] = d.Features[i][j]
	}
	return out
}

func allSamplers() []PointSampler {
	return []PointSampler{
		Random{}, Full{}, LHS{}, Stratified{}, UIPS{}, MaxEnt{},
	}
}

// TestSamplerContract checks the base contract for every sampler: correct
// count, valid unique indices, deterministic under a fixed rng seed.
func TestSamplerContract(t *testing.T) {
	d := gaussData(600, 1)
	for _, s := range allSamplers() {
		n := 60
		idx := s.SelectPoints(d, n, rand.New(rand.NewSource(42)))
		wantN := n
		if _, isFull := s.(Full); isFull {
			wantN = d.N()
		}
		if len(idx) != wantN {
			t.Fatalf("%s: got %d indices, want %d", s.Name(), len(idx), wantN)
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= d.N() {
				t.Fatalf("%s: index %d out of range", s.Name(), i)
			}
			if seen[i] {
				t.Fatalf("%s: duplicate index %d", s.Name(), i)
			}
			seen[i] = true
		}
		idx2 := s.SelectPoints(d, n, rand.New(rand.NewSource(42)))
		for r := range idx {
			if idx[r] != idx2[r] {
				t.Fatalf("%s: not deterministic under fixed seed", s.Name())
			}
		}
	}
}

func TestSamplersDoNotMutateInput(t *testing.T) {
	d := gaussData(300, 2)
	orig := make([]float64, len(d.Features))
	for i := range d.Features {
		orig[i] = d.Features[i][0]
	}
	for _, s := range allSamplers() {
		s.SelectPoints(d, 30, rand.New(rand.NewSource(1)))
		for i := range d.Features {
			if d.Features[i][0] != orig[i] {
				t.Fatalf("%s mutated input features", s.Name())
			}
		}
	}
}

func TestRequestLargerThanData(t *testing.T) {
	d := gaussData(20, 3)
	for _, s := range allSamplers() {
		idx := s.SelectPoints(d, 100, rand.New(rand.NewSource(1)))
		if len(idx) != 20 {
			t.Fatalf("%s: oversize request returned %d, want all 20", s.Name(), len(idx))
		}
	}
}

func TestRandomUniformCoverage(t *testing.T) {
	d := gaussData(10000, 4)
	idx := Random{}.SelectPoints(d, 5000, rand.New(rand.NewSource(5)))
	// The sampled mean of a symmetric distribution stays near 0.
	m := stats.ComputeMoments(col(d, idx, 0))
	if math.Abs(m.Mean) > 0.1 {
		t.Fatalf("random sample mean = %v, want ~0", m.Mean)
	}
}

// TestUIPSFlattensPDF: UIPS must over-represent tails relative to random
// sampling — the mechanism behind Fig. 5's tail coverage.
func TestUIPSFlattensPDF(t *testing.T) {
	d := gaussData(20000, 6)
	rng := rand.New(rand.NewSource(7))
	full := make([]float64, d.N())
	for i := range full {
		full[i] = d.Features[i][0]
	}
	uipsIdx := UIPS{Bins: 30}.SelectPoints(d, 2000, rng)
	randIdx := Random{}.SelectPoints(d, 2000, rand.New(rand.NewSource(8)))
	tcUIPS := stats.TailCoverage(full, col(d, uipsIdx, 0), 0.02)
	tcRand := stats.TailCoverage(full, col(d, randIdx, 0), 0.02)
	if tcUIPS <= 1.5*tcRand {
		t.Fatalf("UIPS tail coverage %v should far exceed random %v", tcUIPS, tcRand)
	}
	// On a heavy-tailed (Laplace) scalar, four bins are too coarse a PDF
	// estimate to flatten the tails that thirty reach.
	lap := make([]float64, 20000)
	for i := range lap {
		lap[i] = rng.ExpFloat64() * float64(1-2*rng.Intn(2))
	}
	ld := &Data{Features: cluster.Scalar1D(lap), ClusterVar: lap}
	tail := func(bins int) float64 {
		idx := UIPS{Bins: bins}.SelectPoints(ld, 2000, rand.New(rand.NewSource(9)))
		return stats.TailCoverage(lap, col(ld, idx, 0), 0.02)
	}
	if fine, coarse := tail(30), tail(4); fine <= coarse {
		t.Fatalf("30-bin UIPS tail coverage %v should exceed 4-bin %v", fine, coarse)
	}
}

// TestMaxEntCoversTails: MaxEnt must also over-represent the rare clusters.
func TestMaxEntCoversTails(t *testing.T) {
	d := gaussData(20000, 9)
	full := make([]float64, d.N())
	for i := range full {
		full[i] = d.Features[i][0]
	}
	meIdx := MaxEnt{NumClusters: 12}.SelectPoints(d, 2000, rand.New(rand.NewSource(10)))
	randIdx := Random{}.SelectPoints(d, 2000, rand.New(rand.NewSource(11)))
	tcME := stats.TailCoverage(full, col(d, meIdx, 0), 0.02)
	tcRand := stats.TailCoverage(full, col(d, randIdx, 0), 0.02)
	if tcME <= 1.2*tcRand {
		t.Fatalf("MaxEnt tail coverage %v should exceed random %v", tcME, tcRand)
	}
	// Two clusters cannot isolate the tails from the bulk.
	k2Idx := MaxEnt{NumClusters: 2}.SelectPoints(d, 2000, rand.New(rand.NewSource(10)))
	if tcK2 := stats.TailCoverage(full, col(d, k2Idx, 0), 0.02); tcME <= tcK2 {
		t.Fatalf("k=12 MaxEnt tail coverage %v should exceed k=2's %v", tcME, tcK2)
	}
}

// TestMaxEntMoreReproducibleTailCoverage reproduces the paper's
// reproducibility claim (§7, Fig. 6) at the sampler level: across seeds the
// *relative* spread of the tail representation — the statistic that drives
// surrogate quality in Fig. 5/6 — is smaller for MaxEnt than for random,
// because MaxEnt allocates the tail budget deterministically from cluster
// strengths while random sampling leaves tail counts to Poisson noise.
func TestMaxEntMoreReproducibleTailCoverage(t *testing.T) {
	d := gaussData(8000, 12)
	full := make([]float64, d.N())
	for i := range full {
		full[i] = d.Features[i][0]
	}
	relSpread := func(s PointSampler) float64 {
		var tcs []float64
		for seed := int64(0); seed < 10; seed++ {
			idx := s.SelectPoints(d, 400, rand.New(rand.NewSource(seed)))
			tcs = append(tcs, stats.TailCoverage(full, col(d, idx, 0), 0.02))
		}
		m := stats.ComputeMoments(tcs)
		if m.Mean == 0 {
			return math.Inf(1)
		}
		return math.Sqrt(m.Variance) / m.Mean // coefficient of variation
	}
	cvRand := relSpread(Random{})
	cvME := relSpread(MaxEnt{NumClusters: 12})
	if cvME > cvRand {
		t.Fatalf("MaxEnt tail-coverage CV %v should be <= random %v", cvME, cvRand)
	}
}

func TestStratifiedHitsEveryStratum(t *testing.T) {
	// Bimodal KCV: two well-separated blobs, one 10× rarer.
	rng := rand.New(rand.NewSource(13))
	n := 11000
	feats := make([][]float64, n)
	kcv := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64() * 0.1
		if i < 1000 {
			v += 10
		}
		feats[i] = []float64{v}
		kcv[i] = v
	}
	d := &Data{Features: feats, ClusterVar: kcv}
	idx := Stratified{NumStrata: 10}.SelectPoints(d, 200, rng)
	rare := 0
	for _, i := range idx {
		if kcv[i] > 5 {
			rare++
		}
	}
	// Proportional sampling would give ~18 rare points; equal-allocation
	// stratification should give far more.
	if rare < 40 {
		t.Fatalf("stratified rare-mode count = %d, want >= 40", rare)
	}
}

func TestLHSStratification(t *testing.T) {
	// LHS over uniform data: the selected first-feature values should hit
	// most deciles.
	rng := rand.New(rand.NewSource(14))
	n := 5000
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = []float64{rng.Float64(), rng.Float64()}
	}
	d := &Data{Features: feats}
	idx := LHS{}.SelectPoints(d, 50, rng)
	bins := make([]int, 10)
	for _, i := range idx {
		b := int(feats[i][0] * 10)
		if b > 9 {
			b = 9
		}
		bins[b]++
	}
	empty := 0
	for _, c := range bins {
		if c == 0 {
			empty++
		}
	}
	if empty > 1 {
		t.Fatalf("LHS left %d deciles empty: %v", empty, bins)
	}
}

// weightedSampleWithoutReplacement is the draw on a throw-away scratch.
func weightedSampleWithoutReplacement(w []float64, n int, rng *rand.Rand) []int {
	return new(cubeScratch).weightedSample(w, n, rng)
}

func TestWeightedSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w := []float64{100, 1, 1, 1, 0, math.NaN()}
	counts := make([]int, len(w))
	for trial := 0; trial < 2000; trial++ {
		idx := weightedSampleWithoutReplacement(w, 2, rng)
		if len(idx) != 2 || idx[0] == idx[1] {
			t.Fatalf("bad sample %v", idx)
		}
		for _, i := range idx {
			counts[i]++
		}
	}
	// Heaviest item appears in almost every draw.
	if counts[0] < 1800 {
		t.Fatalf("heavy item drawn only %d/2000 times", counts[0])
	}
	// Oversize request returns everything.
	if got := weightedSampleWithoutReplacement(w, 10, rng); len(got) != len(w) {
		t.Fatalf("oversize request returned %d", len(got))
	}
}

// Property: weighted sampling returns exactly n distinct valid indices.
func TestWeightedSampleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(50)
		w := make([]float64, m)
		for i := range w {
			w[i] = rng.Float64()
		}
		n := 1 + rng.Intn(m)
		idx := weightedSampleWithoutReplacement(w, n, rng)
		if len(idx) != n {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= m || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyCharged(t *testing.T) {
	d := gaussData(500, 16)
	for _, name := range MethodNames() {
		m := energy.NewMeter()
		s, err := NewPointSampler(name, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		s.SelectPoints(d, 50, rand.New(rand.NewSource(1)))
		if m.Joules() <= 0 {
			t.Fatalf("%s charged no energy", name)
		}
	}
}

func TestNewPointSamplerUnknown(t *testing.T) {
	if _, err := NewPointSampler("bogus", 0, nil); err == nil {
		t.Fatal("expected error for unknown sampler")
	}
	if _, err := NewHypercubeSelector("bogus", 0, nil); err == nil {
		t.Fatal("expected error for unknown selector")
	}
	// k outside [0, maxEntHistBins]: more clusters than each cluster's
	// histogram has bins, at a cost that grows as k².
	for _, k := range []int{-1, maxEntHistBins + 1, 1000} {
		if _, err := NewPointSampler("maxent", k, nil); err == nil {
			t.Fatalf("point sampler accepted numClusters %d", k)
		}
		if _, err := NewHypercubeSelector("maxent", k, nil); err == nil {
			t.Fatalf("selector accepted numClusters %d", k)
		}
	}
	for _, k := range []int{0, maxEntHistBins} {
		if _, err := NewPointSampler("maxent", k, nil); err != nil {
			t.Fatalf("numClusters %d: %v", k, err)
		}
	}
}

func TestValidateRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty data")
		}
	}()
	Random{}.SelectPoints(&Data{}, 5, rand.New(rand.NewSource(1)))
}

func TestDataKCVFallback(t *testing.T) {
	d := &Data{Features: [][]float64{{1, 9}, {2, 8}}}
	kcv := d.KCV()
	if kcv[0] != 1 || kcv[1] != 2 {
		t.Fatalf("KCV fallback = %v", kcv)
	}
}

func BenchmarkRandom10k(b *testing.B) {
	d := gaussData(10000, 20)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Random{}.SelectPoints(d, 1000, rng)
	}
}

func BenchmarkUIPS10k(b *testing.B) {
	d := gaussData(10000, 21)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UIPS{}.SelectPoints(d, 1000, rng)
	}
}

func BenchmarkMaxEnt10k(b *testing.B) {
	d := gaussData(10000, 22)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxEnt{}.SelectPoints(d, 1000, rng)
	}
}
