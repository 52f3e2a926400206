// Package spectral implements the Fourier machinery the synthetic-turbulence
// substrates need: an iterative radix-2 complex FFT, 3-D transforms, a
// spectral Poisson solver (used to derive pressure from velocity, as the
// GESTS pseudo-spectral code does), and shell-averaged energy spectra.
package spectral

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/tensor"
)

// plan is what every transform of one length shares: the bit-reversal
// permutation and each stage's twiddles, forward and inverse. A stage of
// half-size h keeps its twiddles at [h-1, 2h-1).
type plan struct {
	rev      []int32
	fwd, inv []complex128
}

// plans caches one plan per log2 of the length; building one twice in a
// race is harmless, the first stored wins.
var plans [64]atomic.Pointer[plan]

func planFor(n int) *plan {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("spectral: FFT length %d is not a power of two", n))
	}
	lg := bits.TrailingZeros(uint(n))
	if pl := plans[lg].Load(); pl != nil {
		return pl
	}
	pl := &plan{rev: make([]int32, n), fwd: twiddles(n, -1), inv: twiddles(n, 1)}
	shift := 64 - uint(lg)
	for i := range pl.rev {
		pl.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	plans[lg].CompareAndSwap(nil, pl)
	return plans[lg].Load()
}

// twiddles generates every stage's factors by the running product
// w *= wStep from 1, so a planned butterfly multiplies by the same float64
// values as one that stepped w itself.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := half - 1; k < size-1; k++ {
			tw[k] = w
			w *= wStep
		}
	}
	return tw
}

// transform runs the radix-2 FFT of x (len(x) is the plan's length) in
// place; inverse also applies the 1/N factor.
func (pl *plan) transform(x []complex128, inverse bool) {
	n := len(x)
	for i, j := range pl.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := pl.fwd
	if inverse {
		tw = pl.inv
	}
	// A stage's butterflies touch disjoint pairs, so running them twiddle by
	// twiddle changes no result.
	for half := 1; half < n; half <<= 1 {
		size := half << 1
		for k, wk := range tw[half-1 : size-1] {
			for p := k; p < n; p += size {
				a := x[p]
				b := x[p+half] * wk
				x[p] = a + b
				x[p+half] = a - b
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

// Grid3 is an Nx×Ny×Nz complex field stored x-fastest, matching grid.Field
// layout, with spectral transforms along each axis.
type Grid3 struct {
	Nx, Ny, Nz int
	Data       []complex128

	// Transform state, built by the first transform so that a warm one
	// allocates nothing: the direction the passes read, the x, y and z
	// passes, and one tile slab per strided-pass chunk (tensor.MaxChunks).
	inverse bool
	passes  [3]pass
	slabs   []complex128
}

// pass is one axis of the 3-D transform as the kernel pool runs it: units
// split among chunks, and work, one per element and butterfly stage.
type pass struct {
	units, work int
	run         func(lo, hi int)
}

// A strided pass moves tiles of tileLines neighbouring lines (consecutive
// i; 8 complex128 fill two cache lines per row).
const tileLines = 8

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
	tensor.DefaultPool().ParallelFor(len(v), len(v), func(lo, hi int) {
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
	tensor.DefaultPool().ParallelFor(len(g.Data), len(g.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = real(g.Data[i])
		}
	})
	return dst
}

// FFT3 performs the forward 3-D transform in place.
func (g *Grid3) FFT3() { g.transform(false) }

// IFFT3 performs the inverse 3-D transform (normalized) in place.
func (g *Grid3) IFFT3() { g.transform(true) }

// transform runs the separable 3-D FFT as three passes of independent 1-D
// line transforms fanned out across the kernel pool. Every line touches a
// disjoint set of cells and sees the same operations whichever chunk runs
// it, so parallel and serial execution are bit-identical.
func (g *Grid3) transform(inverse bool) {
	if g.passes[0].run == nil {
		g.preparePasses()
	}
	g.inverse = inverse
	p := tensor.DefaultPool()
	for _, ps := range g.passes {
		p.ParallelFor(ps.units, ps.work, ps.run)
	}
}

func (g *Grid3) preparePasses() {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	g.slabs = make([]complex128, tensor.MaxChunks*min(tileLines, nx)*max(ny, nz))
	// x-lines are contiguous; one unit per (k, j) line.
	g.passes[0] = pass{nz * ny, bits.TrailingZeros(uint(nx)) * len(g.Data), func(u0, u1 int) {
		pl := planFor(nx)
		for u := u0; u < u1; u++ {
			pl.transform(g.Data[u*nx:(u+1)*nx], g.inverse)
		}
	}}
	// y-lines start at (0, 0, k) and step nx; z-lines start at (0, j, 0)
	// and step nx·ny. A flat grid has no z pass (zero units).
	g.passes[1] = g.stridedPass(nz, nx*ny, ny, nx)
	if nz > 1 {
		g.passes[2] = g.stridedPass(ny, nx, nz, nx*ny)
	}
}

// stridedPass builds the pass over lines of length n whose elements lie
// step apart, rows of them starting outer apart, rows in all. Its unit is a
// tile of up to tileLines neighbouring lines (consecutive i): gathered row
// by row (contiguous reads) into its chunk's slab, each line transformed
// there, scattered back. Chunk starts lie at least tiles/MaxChunks apart,
// so u0·MaxChunks/tiles numbers a chunk's slab below MaxChunks.
func (g *Grid3) stridedPass(rows, outer, n, step int) pass {
	w := min(tileLines, g.Nx)
	rowTiles := g.Nx / w
	tiles := rows * rowTiles
	return pass{tiles, bits.TrailingZeros(uint(n)) * len(g.Data), func(u0, u1 int) {
		pl := planFor(n)
		slab := g.slabs[u0*tensor.MaxChunks/tiles*w*n:][:w*n]
		for u := u0; u < u1; u++ {
			base := u/rowTiles*outer + u%rowTiles*w
			for e := 0; e < n; e++ {
				for t, c := range g.Data[base+e*step : base+e*step+w] {
					slab[t*n+e] = c
				}
			}
			for t := 0; t < w; t++ {
				pl.transform(slab[t*n:(t+1)*n], g.inverse)
			}
			for e := 0; e < n; e++ {
				row := g.Data[base+e*step : base+e*step+w]
				for t := range row {
					row[t] = slab[t*n+e]
				}
			}
		}
	}}
}

// WaveNumber maps FFT index m on an axis of length n (domain length 2π) to
// the signed integer wavenumber.
func WaveNumber(m, n int) float64 {
	if m <= n/2 {
		return float64(m)
	}
	return float64(m - n)
}
