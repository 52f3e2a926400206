package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMomentsGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 3
	}
	m := ComputeMoments(xs)
	if math.Abs(m.Mean-3) > 0.05 {
		t.Fatalf("Mean = %v, want ~3", m.Mean)
	}
	if math.Abs(m.Variance-4) > 0.1 {
		t.Fatalf("Variance = %v, want ~4", m.Variance)
	}
	if math.Abs(m.Skewness) > 0.05 {
		t.Fatalf("Skewness = %v, want ~0", m.Skewness)
	}
	if math.Abs(m.Kurtosis) > 0.1 {
		t.Fatalf("Kurtosis = %v, want ~0", m.Kurtosis)
	}
}

func TestMomentsDegenerate(t *testing.T) {
	if m := ComputeMoments(nil); m.Mean != 0 || m.Variance != 0 {
		t.Fatal("empty moments should be zero")
	}
	if m := ComputeMoments([]float64{5}); m.Mean != 5 || m.Variance != 0 {
		t.Fatal("single-sample moments wrong")
	}
	m := ComputeMoments([]float64{2, 2, 2})
	if m.Variance != 0 || m.Skewness != 0 {
		t.Fatal("constant sample should have zero variance/skewness")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0.5, 1.5, 1.7, 9.9, -5, 50})
	if h.N != 6 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 2 { // 0.5 and clamped -5
		t.Fatalf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Fatalf("bin1 = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 50
		t.Fatalf("bin9 = %d, want 2", h.Counts[9])
	}
	p := h.PDF()
	s := 0.0
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("PDF sums to %v", s)
	}
}

func TestHistogramFromDataSpansRange(t *testing.T) {
	xs := []float64{-3, 0, 7}
	h := HistogramFromData(xs, 5)
	if h.N != 3 {
		t.Fatalf("N = %d", h.N)
	}
	if h.BinIndex(-3) != 0 {
		t.Fatal("min should land in bin 0")
	}
	if h.BinIndex(7) != 4 {
		t.Fatal("max should land in last bin")
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 4
	}
	h := HistogramFromData(xs, 20)
	// The density per bin is its probability mass over the bin width.
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	integral := 0.0
	for _, mass := range h.PDF() {
		density := mass / w
		integral += density * w
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("density integrates to %v", integral)
	}
}

func TestEntropyKnownValues(t *testing.T) {
	// Uniform over 4 -> log 4.
	if got := Entropy([]float64{1, 1, 1, 1}); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy = %v", got)
	}
	// Deterministic -> 0.
	if got := Entropy([]float64{0, 1, 0}); got != 0 {
		t.Fatalf("deterministic entropy = %v", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Fatalf("empty entropy = %v", got)
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	if got := KLDivergence(p, p); got > 1e-12 {
		t.Fatalf("D(p||p) = %v, want 0", got)
	}
	q := []float64{0.2, 0.3, 0.5}
	if got := KLDivergence(p, q); got <= 0 {
		t.Fatalf("D(p||q) = %v, want > 0", got)
	}
	// Known value: D between (1,0) and (0.5,0.5) = log 2.
	d := KLDivergence([]float64{1, 0}, []float64{0.5, 0.5})
	if math.Abs(d-math.Log(2)) > 1e-9 {
		t.Fatalf("D = %v, want log2", d)
	}
}

// Property: KL >= 0 (Gibbs' inequality) for random distributions.
func TestKLNonNegativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, 8)
		q := make([]float64, 8)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64() + 1e-6
		}
		return KLDivergence(p, q) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: JS is symmetric and bounded by log 2.
func TestJensenShannonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, 6)
		q := make([]float64, 6)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		a := JensenShannon(p, q)
		b := JensenShannon(q, p)
		return math.Abs(a-b) < 1e-9 && a >= 0 && a <= math.Log(2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestTailCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make([]float64, 10000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	// A subset drawn from the same distribution covers tails ~proportionally.
	same := ref[:2000]
	if tc := TailCoverage(ref, same, 0.05); tc < 0.7 || tc > 1.3 {
		t.Fatalf("same-dist tail coverage = %v, want ~1", tc)
	}
	// A center-only subset misses the tails entirely.
	var center []float64
	for _, x := range ref {
		if math.Abs(x) < 0.5 {
			center = append(center, x)
		}
	}
	if tc := TailCoverage(ref, center, 0.05); tc > 0.01 {
		t.Fatalf("center-only tail coverage = %v, want ~0", tc)
	}
}

func TestNormalizeColumns(t *testing.T) {
	pts := [][]float64{{0, 5}, {10, 5}, {5, 5}}
	mins, maxs := NormalizeColumns(pts)
	if mins[0] != 0 || maxs[0] != 10 {
		t.Fatalf("col0 range = [%v,%v]", mins[0], maxs[0])
	}
	if pts[1][0] != 1 || pts[2][0] != 0.5 {
		t.Fatalf("normalized col0 = %v,%v", pts[1][0], pts[2][0])
	}
	// Constant column maps to zero.
	for i := range pts {
		if pts[i][1] != 0 {
			t.Fatalf("constant column should normalize to 0, got %v", pts[i][1])
		}
	}
}

func TestNDHistogram(t *testing.T) {
	h := NewNDHistogram([]float64{0, 0}, []float64{1, 1}, 4)
	h.Add([]float64{0.1, 0.1})
	h.Add([]float64{0.1, 0.12})
	h.Add([]float64{0.9, 0.9})
	if h.N != 3 {
		t.Fatalf("N = %d", h.N)
	}
	if h.OccupiedCells() != 2 {
		t.Fatalf("occupied = %d, want 2", h.OccupiedCells())
	}
	if p := h.Probability([]float64{0.11, 0.11}); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("P = %v, want 2/3", p)
	}
}

func TestNDHistogramUniformityIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	uniform := make([][]float64, 20000)
	for i := range uniform {
		uniform[i] = []float64{rng.Float64(), rng.Float64()}
	}
	hu := NDHistogramFromPoints(uniform, 8)
	clumped := make([][]float64, 20000)
	for i := range clumped {
		// 95% of mass in one corner cell.
		if rng.Float64() < 0.95 {
			clumped[i] = []float64{rng.Float64() * 0.1, rng.Float64() * 0.1}
		} else {
			clumped[i] = []float64{rng.Float64(), rng.Float64()}
		}
	}
	hc := NDHistogramFromPoints(clumped, 8)
	iu, ic := hu.UniformityIndex(), hc.UniformityIndex()
	if iu < 0.95 {
		t.Fatalf("uniform index = %v, want ~1", iu)
	}
	if ic > 0.5*iu {
		t.Fatalf("clumped index %v should be well below uniform %v", ic, iu)
	}
}

// Property: histogram conserves total mass regardless of out-of-range values.
func TestHistogramMassConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 7)
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64() * 3) // frequently out of range
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == n && h.N == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
