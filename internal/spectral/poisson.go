package spectral

// SolvePoisson solves ∇²p = f on a triply periodic [0,2π)³ domain using the
// spectral method: p̂(k) = -f̂(k)/|k|². The k=0 mode (mean of p) is set to
// zero. f is x-fastest real data; the solution is returned in the same
// layout.
func SolvePoisson(f []float64, nx, ny, nz int) []float64 {
	g := NewGrid3(nx, ny, nz)
	g.FromReal(f)
	g.FFT3()
	for k := 0; k < nz; k++ {
		kz := WaveNumber(k, nz)
		for j := 0; j < ny; j++ {
			ky := WaveNumber(j, ny)
			for i := 0; i < nx; i++ {
				kx := WaveNumber(i, nx)
				k2 := kx*kx + ky*ky + kz*kz
				idx := (k*ny+j)*nx + i
				if k2 == 0 {
					g.Data[idx] = 0
					continue
				}
				g.Data[idx] = -g.Data[idx] / complex(k2, 0)
			}
		}
	}
	g.IFFT3()
	return g.RealPart(nil)
}

// PressureFromVelocity computes the pressure field of an incompressible
// flow from the Poisson equation ∇²p = -∂ᵢuⱼ∂ⱼuᵢ, evaluated spectrally.
// This mirrors how the GESTS post-processing derives pressure from the
// velocity checkpoint. u, v, w are x-fastest fields on a periodic [0,2π)³
// grid.
func PressureFromVelocity(u, v, w []float64, nx, ny, nz int) []float64 {
	// Velocity gradients via spectral differentiation.
	grads := make([][]float64, 9) // [du/dx, du/dy, du/dz, dv/dx, ...]
	vels := [][]float64{u, v, w}
	for a, vel := range vels {
		for d := 0; d < 3; d++ {
			grads[a*3+d] = Derivative(vel, nx, ny, nz, d)
		}
	}
	// Source term: -∂ᵢuⱼ ∂ⱼuᵢ = -Σᵢⱼ (∂uⱼ/∂xᵢ)(∂uᵢ/∂xⱼ).
	src := make([]float64, len(u))
	for p := range src {
		s := 0.0
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				s += grads[a*3+b][p] * grads[b*3+a][p]
			}
		}
		src[p] = -s
	}
	return SolvePoisson(src, nx, ny, nz)
}

// Derivative computes ∂f/∂x_axis spectrally (axis: 0=x, 1=y, 2=z) on a
// periodic [0,2π)³ grid.
func Derivative(f []float64, nx, ny, nz, axis int) []float64 {
	g := NewGrid3(nx, ny, nz)
	g.FromReal(f)
	g.FFT3()
	for k := 0; k < nz; k++ {
		kz := WaveNumber(k, nz)
		for j := 0; j < ny; j++ {
			ky := WaveNumber(j, ny)
			for i := 0; i < nx; i++ {
				kx := WaveNumber(i, nx)
				var kv float64
				var m, n int
				switch axis {
				case 0:
					kv, m, n = kx, i, nx
				case 1:
					kv, m, n = ky, j, ny
				default:
					kv, m, n = kz, k, nz
				}
				idx := (k*ny+j)*nx + i
				// The Nyquist mode is self-conjugate; multiplying it by
				// i·k would make the result complex. Its derivative is
				// conventionally set to zero.
				if m == n/2 && n > 1 {
					g.Data[idx] = 0
					continue
				}
				// Multiply by i·k.
				g.Data[idx] *= complex(0, kv)
			}
		}
	}
	g.IFFT3()
	return g.RealPart(nil)
}
