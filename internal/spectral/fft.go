// Package spectral implements the Fourier machinery the synthetic-turbulence
// substrates need: an iterative radix-2 complex FFT, 3-D transforms, a
// spectral Poisson solver (used to derive pressure from velocity, as the
// GESTS pseudo-spectral code does), and shell-averaged energy spectra.
package spectral

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// FFT computes the in-place forward discrete Fourier transform of x,
// whose length must be a power of two. The convention is
// X[k] = Σ_n x[n]·exp(-2πi·kn/N) (no normalization).
func FFT(x []complex128) {
	fftInternal(x, false)
}

// IFFT computes the in-place inverse transform, including the 1/N factor,
// so IFFT(FFT(x)) == x.
func IFFT(x []complex128) {
	fftInternal(x, true)
	inv := 1 / float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

func fftInternal(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("spectral: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
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
}

// Grid3 is an Nx×Ny×Nz complex field stored x-fastest, matching grid.Field
// layout, with spectral transforms along each axis.
type Grid3 struct {
	Nx, Ny, Nz int
	Data       []complex128
}

// NewGrid3 allocates a zeroed complex grid. All dimensions must be powers
// of two.
func NewGrid3(nx, ny, nz int) *Grid3 {
	for _, n := range []int{nx, ny, nz} {
		if n <= 0 || n&(n-1) != 0 {
			panic(fmt.Sprintf("spectral: grid dims must be powers of two, got %d×%d×%d", nx, ny, nz))
		}
	}
	return &Grid3{Nx: nx, Ny: ny, Nz: nz, Data: make([]complex128, nx*ny*nz)}
}

// FromReal fills the grid from a real-valued field of the same layout.
func (g *Grid3) FromReal(v []float64) {
	if len(v) != len(g.Data) {
		panic("spectral: FromReal length mismatch")
	}
	tensor.DefaultPool().ParallelFor(len(v), 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.Data[i] = complex(v[i], 0)
		}
	})
}

// RealPart extracts the real part into dst (allocated if nil).
func (g *Grid3) RealPart(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(g.Data))
	}
	tensor.DefaultPool().ParallelFor(len(g.Data), 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = real(g.Data[i])
		}
	})
	return dst
}

func (g *Grid3) idx(i, j, k int) int { return (k*g.Ny+j)*g.Nx + i }

// FFT3 performs the forward 3-D transform in place.
func (g *Grid3) FFT3() { g.transform(false) }

// IFFT3 performs the inverse 3-D transform (normalized) in place.
func (g *Grid3) IFFT3() { g.transform(true) }

// transform runs the separable 3-D FFT as three passes of independent 1-D
// line transforms; each pass fans its lines out across the kernel pool
// (every line touches a disjoint set of grid cells, so parallel and serial
// execution are bit-identical).
func (g *Grid3) transform(inverse bool) {
	do := func(line []complex128) {
		if inverse {
			IFFT(line)
		} else {
			FFT(line)
		}
	}
	p := tensor.DefaultPool()
	// x-lines are contiguous; one unit per (k, j) line.
	p.ParallelFor(g.Nz*g.Ny, 8, func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			k, j := u/g.Ny, u%g.Ny
			base := g.idx(0, j, k)
			do(g.Data[base : base+g.Nx])
		}
	})
	// y-lines; one unit per (k, i) line, with a per-chunk gather buffer.
	p.ParallelFor(g.Nz*g.Nx, 8, func(u0, u1 int) {
		buf := make([]complex128, g.Ny)
		for u := u0; u < u1; u++ {
			k, i := u/g.Nx, u%g.Nx
			for j := 0; j < g.Ny; j++ {
				buf[j] = g.Data[g.idx(i, j, k)]
			}
			do(buf)
			for j := 0; j < g.Ny; j++ {
				g.Data[g.idx(i, j, k)] = buf[j]
			}
		}
	})
	// z-lines; one unit per (j, i) line.
	if g.Nz > 1 {
		p.ParallelFor(g.Ny*g.Nx, 8, func(u0, u1 int) {
			bufz := make([]complex128, g.Nz)
			for u := u0; u < u1; u++ {
				j, i := u/g.Nx, u%g.Nx
				for k := 0; k < g.Nz; k++ {
					bufz[k] = g.Data[g.idx(i, j, k)]
				}
				do(bufz)
				for k := 0; k < g.Nz; k++ {
					g.Data[g.idx(i, j, k)] = bufz[k]
				}
			}
		})
	}
}

// WaveNumber maps FFT index m on an axis of length n (domain length 2π) to
// the signed integer wavenumber.
func WaveNumber(m, n int) float64 {
	if m <= n/2 {
		return float64(m)
	}
	return float64(m - n)
}
