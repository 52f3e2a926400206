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
	// grads[a][d] = ∂u_a/∂x_d: one forward transform per component.
	grads := [3][3][]float64{Gradient(u, nx, ny, nz), Gradient(v, nx, ny, nz), Gradient(w, nx, ny, nz)}
	// Source term: -∂ᵢuⱼ ∂ⱼuᵢ = -Σᵢⱼ (∂uⱼ/∂xᵢ)(∂uᵢ/∂xⱼ).
	src := make([]float64, len(u))
	for p := range src {
		s := 0.0
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				s += grads[a][b][p] * grads[b][a][p]
			}
		}
		src[p] = -s
	}
	return SolvePoisson(src, nx, ny, nz)
}

// Gradient returns ∂f/∂x, ∂f/∂y and ∂f/∂z, computed spectrally on a
// periodic [0,2π)³ grid from one forward transform of f.
func Gradient(f []float64, nx, ny, nz int) [3][]float64 {
	spec := NewGrid3(nx, ny, nz)
	spec.FromReal(f)
	spec.FFT3()
	g := NewGrid3(nx, ny, nz)
	var out [3][]float64
	for axis := range out {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					m, n := [3]int{i, j, k}[axis], [3]int{nx, ny, nz}[axis]
					idx := (k*ny+j)*nx + i
					// The Nyquist mode is self-conjugate; multiplying it
					// by i·k would make the result complex. Its derivative
					// is conventionally set to zero.
					if m == n/2 && n > 1 {
						g.Data[idx] = 0
					} else {
						g.Data[idx] = spec.Data[idx] * complex(0, WaveNumber(m, n)) // i·k
					}
				}
			}
		}
		g.IFFT3()
		out[axis] = g.RealPart(nil)
	}
	return out
}
