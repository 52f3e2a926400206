package spectral

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// fft and ifft are the 1-D transforms through a plan, as Grid3's passes
// run them; ifft includes the 1/N factor, so ifft(fft(x)) == x.
func fft(x []complex128)  { planFor(len(x)).transform(x, false) }
func ifft(x []complex128) { planFor(len(x)).transform(x, true) }

// dftNaive is the O(N²) reference transform fft is validated against.
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
		fft(got)
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
	fft(make([]complex128, 6))
}

// Property: ifft(fft(x)) == x.
func TestFFTRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		fft(y)
		ifft(y)
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
		fft(x)
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
	fft(x)
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
	df := Gradient(f, nx, ny, nz)[0]
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
		fft(y)
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
// the 3-D transform matches the serial execution bit for bit. 16×8×4 runs
// every pass on the caller; 32³ and 64×16×8 split each pass.
func TestFFT3BitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	for _, d := range [][3]int{{16, 8, 4}, {32, 32, 32}, {64, 16, 8}} {
		mk := func() *Grid3 {
			g := NewGrid3(d[0], d[1], d[2])
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
				t.Fatalf("%v: FFT3 parallel vs serial differs at %d: %v vs %v", d, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// TestRealCopiesBitIdenticalSerialVsParallel pins the pooled copies into
// and out of a grid, FromReal and RealPart: at 64×32×32 each splits in two,
// and a real field taken through FFT3 and IFFT3 comes back the same bits
// pooled as serial.
func TestRealCopiesBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	v := make([]float64, 64*32*32)
	for i := range v {
		v[i] = math.Sin(float64(i) * 0.3)
	}
	roundTrip := func() []float64 {
		g := NewGrid3(64, 32, 32)
		g.FromReal(v)
		g.FFT3()
		g.IFFT3()
		return g.RealPart(nil)
	}
	tensor.SetParallel(false)
	want := roundTrip()
	tensor.SetParallel(true)
	got := roundTrip()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d: %v pooled, %v serial", i, got[i], want[i])
		}
	}
}

// fftRef is the transform before plans: the bit-reversal and every twiddle
// recomputed per call, the twiddle stepped by w *= wStep inside the
// butterfly loop. The planned FFT must match it bit for bit.
func fftRef(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}

// gridRef is the 3-D transform before tiles: every line of every axis
// gathered one at a time and run through fftRef.
func gridRef(g *Grid3, inverse bool) {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	at := func(i, j, k int) *complex128 { return &g.Data[(k*ny+j)*nx+i] }
	line := func(n int, cell func(m int) *complex128) {
		buf := make([]complex128, n)
		for m := range buf {
			buf[m] = *cell(m)
		}
		fftRef(buf, inverse)
		for m := range buf {
			*cell(m) = buf[m]
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			line(nx, func(i int) *complex128 { return at(i, j, k) })
		}
	}
	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			line(ny, func(j int) *complex128 { return at(i, j, k) })
		}
	}
	if nz > 1 {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				line(nz, func(k int) *complex128 { return at(i, j, k) })
			}
		}
	}
}

// derivativeRef is ∂f/∂x_axis as it was computed before Gradient: its own
// forward transform per axis, through gridRef.
func derivativeRef(f []float64, nx, ny, nz, axis int) []float64 {
	g := NewGrid3(nx, ny, nz)
	for i, v := range f {
		g.Data[i] = complex(v, 0)
	}
	gridRef(g, false)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				m, n := [3]int{i, j, k}[axis], [3]int{nx, ny, nz}[axis]
				idx := (k*ny+j)*nx + i
				if m == n/2 && n > 1 {
					g.Data[idx] = 0
					continue
				}
				g.Data[idx] *= complex(0, WaveNumber(m, n))
			}
		}
	}
	gridRef(g, true)
	out := make([]float64, len(f))
	for i := range out {
		out[i] = real(g.Data[i])
	}
	return out
}

// pressureRef is PressureFromVelocity as nine separate derivatives, each
// with its own forward transform, and a Poisson solve through gridRef.
func pressureRef(u, v, w []float64, nx, ny, nz int) []float64 {
	var grads [3][3][]float64
	for a, vel := range [][]float64{u, v, w} {
		for d := 0; d < 3; d++ {
			grads[a][d] = derivativeRef(vel, nx, ny, nz, d)
		}
	}
	g := NewGrid3(nx, ny, nz)
	for p := range g.Data {
		s := 0.0
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				s += grads[a][b][p] * grads[b][a][p]
			}
		}
		g.Data[p] = complex(-s, 0)
	}
	gridRef(g, false)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				k2 := WaveNumber(i, nx)*WaveNumber(i, nx) + WaveNumber(j, ny)*WaveNumber(j, ny) + WaveNumber(k, nz)*WaveNumber(k, nz)
				idx := (k*ny+j)*nx + i
				if k2 == 0 {
					g.Data[idx] = 0
					continue
				}
				g.Data[idx] = -g.Data[idx] / complex(k2, 0)
			}
		}
	}
	gridRef(g, true)
	out := make([]float64, len(g.Data))
	for i := range out {
		out[i] = real(g.Data[i])
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

func randomField(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

// TestFFTMatchesRef: fft and ifft through a plan give fftRef's bits for
// every power of two from 1 to 4096.
func TestFFTMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 4096; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := append([]complex128(nil), x...)
			fftRef(want, inverse)
			if inverse {
				ifft(x)
			} else {
				fft(x)
			}
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d inverse=%v: [%d] = %v, want %v bit for bit", n, inverse, i, x[i], want[i])
				}
			}
		}
	}
}

// TestGradientMatchesRef: one forward transform and three derivatives give
// the bits of three separate derivativeRef calls, tiles full and partial.
func TestGradientMatchesRef(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	rng := rand.New(rand.NewSource(6))
	for _, d := range [][3]int{{16, 16, 16}, {4, 16, 8}, {32, 8, 1}} {
		f := randomField(rng, d[0]*d[1]*d[2])
		got := Gradient(f, d[0], d[1], d[2])
		for axis := range got {
			sameBits(t, fmt.Sprintf("%v ∂%d", d, axis), got[axis], derivativeRef(f, d[0], d[1], d[2], axis))
		}
	}
}

// TestPressureMatchesRef: the forward-once pressure gives the bits of the
// nine-transform reference, at 16³ and at 4×16×8 (a partly filled tile).
func TestPressureMatchesRef(t *testing.T) {
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	rng := rand.New(rand.NewSource(7))
	for _, d := range [][3]int{{16, 16, 16}, {4, 16, 8}} {
		n := d[0] * d[1] * d[2]
		u, v, w := randomField(rng, n), randomField(rng, n), randomField(rng, n)
		sameBits(t, fmt.Sprintf("%v p", d), PressureFromVelocity(u, v, w, d[0], d[1], d[2]),
			pressureRef(u, v, w, d[0], d[1], d[2]))
	}
}

// TestFFT3Allocs: a warm forward and inverse 3-D transform allocates
// nothing, with the pool fanning out its passes.
func TestFFT3Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	g := NewGrid3(32, 32, 32)
	for i := range g.Data {
		g.Data[i] = complex(math.Sin(float64(i)), 0)
	}
	g.FFT3()
	g.IFFT3()
	if a := testing.AllocsPerRun(20, func() {
		g.FFT3()
		g.IFFT3()
	}); a != 0 {
		t.Fatalf("warm FFT3+IFFT3 at 32³ allocates %v objects, want 0", a)
	}
}
