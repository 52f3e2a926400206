// Package synth generates the synthetic analogues of the paper's DNS
// datasets (Table 1). Since the original multi-terabyte data (GESTS
// isotropic boxes, SST stratified ensembles, NREL combustion planes) is not
// available, each generator reproduces the statistical structure the
// sampling experiments depend on: spectral content, (an)isotropy, layered
// gradients, and heavy-tailed derived quantities.
//
// The physics is fixed, not configured: both 3-D generators shape white
// noise to the model spectrum E(k) with a k⁴ rise and a −5/3 inertial
// slope, and derive dissipation with ν = 1e-3; the isotropic field is
// scaled to a mean per-component RMS of 1; the stratified one peaks at
// k = 3 over a buoyancy frequency N = 1. The combustion front is a tanh
// profile of thickness 0.02 (in grid fractions) wrinkled by 6 sine modes,
// mode m with a Gaussian amplitude of scale 0.15/m.
package synth

import (
	"math"
	"math/rand"

	"repro/internal/grid"
	"repro/internal/spectral"
)

// Physics both 3-D generators share. Typed, so expressions over them round
// as float64 arithmetic does.
const (
	spectrumSlope float64 = -5.0 / 3.0 // inertial-range slope of E(k)
	viscosity     float64 = 1e-3       // ν of the derived dissipation
)

// IsotropicConfig controls the GESTS-like isotropic turbulence generator.
type IsotropicConfig struct {
	N     int     // cube edge (power of two)
	KPeak float64 // energy-containing wavenumber, default 4
	Seed  int64
}

func (c *IsotropicConfig) defaults() {
	if c.N == 0 {
		c.N = 32
	}
	if c.KPeak == 0 {
		c.KPeak = 4
	}
}

// Isotropic synthesizes a divergence-free velocity field with a model
// energy spectrum E(k) ∝ k^4 exp(-2(k/kp)²) for k < kp crossing into
// k^slope beyond the peak (a standard von Kármán-like shape), derives
// pressure from the spectral Poisson equation, and computes dissipation
// and enstrophy. The result carries the GESTS variable set of Table 1:
// u, v, w, dissipation (inputs), p (output), enstrophy (KCV).
func Isotropic(cfg IsotropicConfig) *grid.Field {
	cfg.defaults()
	n := cfg.N
	// A single common factor preserves the solenoidal projection; isotropy
	// makes the per-component RMS statistically equal anyway.
	u, v, w := solenoidal(n, n, n, rand.New(rand.NewSource(cfg.Seed)), 1, cfg.isotropicMode)

	f := grid.NewField(n, n, n)
	f.Dx = 2 * math.Pi / float64(n)
	f.Dy, f.Dz = f.Dx, f.Dx
	f.AddVar("u", u)
	f.AddVar("v", v)
	f.AddVar("w", w)
	f.AddVar("p", spectral.PressureFromVelocity(u, v, w, n, n, n))
	f.ComputeDissipation(viscosity)
	f.ComputeEnstrophy()
	return f
}

// modelSpectrum is the target E(k): k⁴ rise to the peak, power-law decay
// beyond it.
func modelSpectrum(k, kp float64) float64 {
	if k <= 0 {
		return 0
	}
	if k < kp {
		r := k / kp
		return r * r * r * r
	}
	return math.Pow(k/kp, spectrumSlope)
}

// modeShape maps one white-noise Fourier mode (wavevector k, |k|² = k2 >
// 0) of the three velocity components to the generated mode.
type modeShape func(kx, ky, kz, k2 float64, u, v, w complex128) (complex128, complex128, complex128)

// solenoidal generates a real velocity field on an nx×ny×nz periodic box:
// real white noise per component (so the spectral coefficients satisfy the
// Hermitian symmetry of a real field), transformed, with the mean mode and
// the Nyquist planes zeroed and every other mode passed through shape,
// transformed back and scaled to the mean per-component RMS urms.
func solenoidal(nx, ny, nz int, rng *rand.Rand, urms float64, shape modeShape) (u, v, w []float64) {
	gs := [3]*spectral.Grid3{}
	for c := range gs {
		g := spectral.NewGrid3(nx, ny, nz)
		noise := make([]float64, nx*ny*nz)
		for i := range noise {
			noise[i] = rng.NormFloat64()
		}
		g.FromReal(noise)
		g.FFT3()
		gs[c] = g
	}
	gu, gv, gw := gs[0].Data, gs[1].Data, gs[2].Data
	for k := 0; k < nz; k++ {
		kz := spectral.WaveNumber(k, nz)
		for j := 0; j < ny; j++ {
			ky := spectral.WaveNumber(j, ny)
			for i := 0; i < nx; i++ {
				kx := spectral.WaveNumber(i, nx)
				idx := (k*ny+j)*nx + i
				k2 := kx*kx + ky*ky + kz*kz
				// Zero the mean mode and the Nyquist planes: Nyquist modes
				// are self-conjugate, so a shape that mixes components by
				// the k-vector (which does not flip sign there) would break
				// Hermitian symmetry and leak divergence into the real part.
				if k2 == 0 || i == nx/2 || j == ny/2 || k == nz/2 {
					gu[idx], gv[idx], gw[idx] = 0, 0, 0
					continue
				}
				gu[idx], gv[idx], gw[idx] = shape(kx, ky, kz, k2, gu[idx], gv[idx], gw[idx])
			}
		}
	}
	out := [3][]float64{}
	for c, g := range gs {
		g.IFFT3()
		out[c] = g.RealPart(nil)
	}
	rescaleRMSCommon(urms, out[0], out[1], out[2])
	return out[0], out[1], out[2]
}

// isotropicMode projects a mode onto the plane ⊥ k (divergence-free) and
// shapes it to the target spectrum.
func (c IsotropicConfig) isotropicMode(kx, ky, kz, k2 float64, du, dv, dw complex128) (complex128, complex128, complex128) {
	kmag := math.Sqrt(k2)
	// Divergence-free (solenoidal) projection: û ← û - k̂(k̂·û).
	dot := (complex(kx, 0)*du + complex(ky, 0)*dv + complex(kz, 0)*dw) / complex(k2, 0)
	du -= complex(kx, 0) * dot
	dv -= complex(ky, 0) * dot
	dw -= complex(kz, 0) * dot
	// Shape to the target spectrum: amplitude ∝ sqrt(E(k)/k²)
	// (shell surface area absorbs k² in 3-D).
	amp := math.Sqrt(modelSpectrum(kmag, c.KPeak) / k2)
	return du * complex(amp, 0), dv * complex(amp, 0), dw * complex(amp, 0)
}

// rescaleRMSCommon scales all components by one factor chosen so the mean
// per-component RMS equals target. A uniform factor commutes with the
// divergence operator, so solenoidal fields stay solenoidal.
func rescaleRMSCommon(target float64, comps ...[]float64) {
	s, n := 0.0, 0
	for _, c := range comps {
		for _, x := range c {
			s += x * x
		}
		n += len(c)
	}
	if n == 0 {
		return
	}
	rms := math.Sqrt(s / float64(n))
	if rms == 0 {
		return
	}
	f := target / rms
	for _, c := range comps {
		for i := range c {
			c[i] *= f
		}
	}
}

// GESTSDataset builds the single-snapshot GESTS-like dataset with Table 1
// metadata (inputs u,v,w,ε; output p; KCV enstrophy).
func GESTSDataset(label string, cfg IsotropicConfig) *grid.Dataset {
	f := Isotropic(cfg)
	return &grid.Dataset{
		Label:       label,
		Description: "3D forced isotropic turbulence (synthetic GESTS analogue)",
		Snapshots:   []*grid.Field{f},
		InputVars:   []string{"u", "v", "w", "dissipation"},
		OutputVars:  []string{"p"},
		ClusterVar:  "enstrophy",
	}
}
