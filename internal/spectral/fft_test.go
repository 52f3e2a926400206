package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// dftNaive is the O(N²) reference transform FFT is validated against.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dftNaive(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT(make([]complex128, 6))
}

// Property: IFFT(FFT(x)) == x.
func TestFFTRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		for i := range y {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — Σ|x|² = (1/N)Σ|X|².
func TestParsevalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(6))
		x := make([]complex128, n)
		tEnergy := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tEnergy += real(x[i]) * real(x[i])
		}
		FFT(x)
		fEnergy := 0.0
		for _, c := range x {
			fEnergy += real(c)*real(c) + imag(c)*imag(c)
		}
		return math.Abs(tEnergy-fEnergy/float64(n)) < 1e-8*(1+tEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTSingleMode(t *testing.T) {
	// x[n] = exp(2πi·3n/N) should transform to a single spike at k=3.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 3 * float64(i) / float64(n)
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	FFT(x)
	for k := range x {
		want := 0.0
		if k == 3 {
			want = float64(n)
		}
		if cmplx.Abs(x[k]-complex(want, 0)) > 1e-9 {
			t.Fatalf("spike test: X[%d] = %v", k, x[k])
		}
	}
}

func TestFFT3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGrid3(8, 4, 16)
	orig := make([]float64, len(g.Data))
	for i := range orig {
		orig[i] = rng.NormFloat64()
	}
	g.FromReal(orig)
	g.FFT3()
	g.IFFT3()
	got := g.RealPart(nil)
	for i := range got {
		if math.Abs(got[i]-orig[i]) > 1e-9 {
			t.Fatalf("3-D round trip failed at %d: %v vs %v", i, got[i], orig[i])
		}
	}
}

func TestWaveNumber(t *testing.T) {
	// For n=8: indices 0..4 map to 0..4, 5..7 map to -3..-1.
	wants := []float64{0, 1, 2, 3, 4, -3, -2, -1}
	for m, w := range wants {
		if got := WaveNumber(m, 8); got != w {
			t.Fatalf("WaveNumber(%d,8) = %v, want %v", m, got, w)
		}
	}
}

// TestDerivativeSine: d/dx sin(x) = cos(x), exact in spectral space.
func TestDerivativeSine(t *testing.T) {
	nx, ny, nz := 32, 4, 4
	f := make([]float64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 2 * math.Pi * float64(i) / float64(nx)
				f[(k*ny+j)*nx+i] = math.Sin(x)
			}
		}
	}
	df := Derivative(f, nx, ny, nz, 0)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 2 * math.Pi * float64(i) / float64(nx)
				if math.Abs(df[(k*ny+j)*nx+i]-math.Cos(x)) > 1e-9 {
					t.Fatalf("derivative(%d,%d,%d) = %v, want %v", i, j, k, df[(k*ny+j)*nx+i], math.Cos(x))
				}
			}
		}
	}
}

// TestPoissonManufactured: ∇²p = f with p = sin(x)cos(2y) ⇒
// f = -(1+4)·p = -5p. Solve and compare (up to the zero-mean convention).
func TestPoissonManufactured(t *testing.T) {
	nx, ny, nz := 32, 32, 4
	want := make([]float64, nx*ny*nz)
	f := make([]float64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 2 * math.Pi * float64(i) / float64(nx)
				y := 2 * math.Pi * float64(j) / float64(ny)
				p := math.Sin(x) * math.Cos(2*y)
				want[(k*ny+j)*nx+i] = p
				f[(k*ny+j)*nx+i] = -5 * p
			}
		}
	}
	got := SolvePoisson(f, nx, ny, nz)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("Poisson[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPressureTaylorGreen: for the 2-D Taylor-Green vortex
// u = sin x cos y, v = -cos x sin y, steady momentum balance
// u·∇u = -∇p gives p = +(cos 2x + cos 2y)/4 (zero mean).
func TestPressureTaylorGreen(t *testing.T) {
	nx, ny, nz := 32, 32, 4
	u := make([]float64, nx*ny*nz)
	v := make([]float64, nx*ny*nz)
	w := make([]float64, nx*ny*nz)
	want := make([]float64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 2 * math.Pi * float64(i) / float64(nx)
				y := 2 * math.Pi * float64(j) / float64(ny)
				idx := (k*ny+j)*nx + i
				u[idx] = math.Sin(x) * math.Cos(y)
				v[idx] = -math.Cos(x) * math.Sin(y)
				want[idx] = (math.Cos(2*x) + math.Cos(2*y)) / 4
			}
		}
	}
	got := PressureFromVelocity(u, v, w, nx, ny, nz)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("pressure[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := append([]complex128(nil), x...)
		FFT(y)
	}
}

func BenchmarkFFT3_64cubed(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := NewGrid3(64, 64, 64)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FFT3()
		g.IFFT3()
	}
}

// TestFFT3BitIdenticalSerialVsParallel asserts the pooled line fan-out of
// the 3-D transform matches the serial execution bit for bit.
func TestFFT3BitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	mk := func() *Grid3 {
		g := NewGrid3(16, 8, 4)
		for i := range g.Data {
			g.Data[i] = complex(math.Sin(float64(i)*0.7), math.Cos(float64(i)*1.3))
		}
		return g
	}
	a, b := mk(), mk()
	tensor.SetParallel(false)
	b.FFT3()
	b.IFFT3()
	tensor.SetParallel(true)
	a.FFT3()
	a.IFFT3()
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			t.Fatalf("FFT3 parallel vs serial differs at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}
