package synth

import (
	"math"
	"math/rand"

	"repro/internal/grid"
	"repro/internal/spectral"
)

// The stratified generator's fixed physics. Typed, so expressions over
// them round as float64 arithmetic does.
const (
	stratKPeak  float64 = 3 // energy-containing wavenumber
	stratBruntN float64 = 1 // background buoyancy frequency (density gradient)
)

// StratifiedConfig controls the SST-like stably stratified turbulence
// generator. Anisotropy pushes energy into horizontal layers: vertical
// wavenumbers are damped by AnisoFactor and vertical velocity is suppressed
// by the buoyancy ratio, producing the pancake structures characteristic of
// the de Bruyn Kops ensembles.
type StratifiedConfig struct {
	Nx, Ny, Nz  int     // powers of two
	AnisoFactor float64 // vertical-scale suppression, default 4 (higher = more layered)
	Froude      float64 // w-suppression ratio w_rms/u_rms, default 0.2
	Seed        int64
	GravityAxis int // 1 = y (paper's SST-P1F100 config), 2 = z (default)
}

func (c *StratifiedConfig) defaults() {
	if c.Nx == 0 {
		c.Nx = 32
	}
	if c.Ny == 0 {
		c.Ny = 32
	}
	if c.Nz == 0 {
		c.Nz = 16
	}
	if c.AnisoFactor == 0 {
		c.AnisoFactor = 4
	}
	if c.Froude == 0 {
		c.Froude = 0.2
	}
	if c.GravityAxis == 0 {
		c.GravityAxis = 2
	}
}

// stratified synthesizes one snapshot of stably stratified turbulence:
// a solenoidal velocity field with anisotropically damped vertical modes, a
// layered density field (linear background + fluctuations tied to vertical
// displacement), pressure, dissipation and potential vorticity — the SST
// variable set of Table 1 (inputs u,v,w,r; outputs p/ε; KCV pv or density).
// urms is the mean per-component velocity RMS, which the SST trajectory
// decays (SSTSnapshot).
func stratified(cfg StratifiedConfig, urms float64) *grid.Field {
	cfg.defaults()
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz
	u, v, w := solenoidal(nx, ny, nz, rand.New(rand.NewSource(cfg.Seed)), urms, cfg.layeredMode)

	f := grid.NewField(nx, ny, nz)
	f.Dx = 2 * math.Pi / float64(nx)
	f.Dy = 2 * math.Pi / float64(ny)
	f.Dz = 2 * math.Pi / float64(nz)
	gComp := w
	if cfg.GravityAxis == 1 {
		gComp = v
	}

	f.AddVar("u", u)
	f.AddVar("v", v)
	f.AddVar("w", w)

	// Density: linear stable background plus fluctuation proportional to the
	// vertical velocity (internal-wave phase relation) plus fine layering.
	r := f.AddVar("r", nil)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := f.Idx(i, j, k)
				var s float64 // coordinate along gravity
				switch cfg.GravityAxis {
				case 1:
					s = float64(j) / float64(ny)
				default:
					s = float64(k) / float64(nz)
				}
				background := -stratBruntN * stratBruntN * s
				fluct := -0.3 * gComp[idx] * stratBruntN
				layer := 0.05 * math.Sin(16*math.Pi*s+0.7*u[idx])
				r[idx] = background + fluct + layer
			}
		}
	}

	f.AddVar("p", spectral.PressureFromVelocity(u, v, w, nx, ny, nz))
	f.ComputeDissipation(viscosity)
	f.ComputePotentialVorticity()
	// Alias used by the P1F100 config (cluster/input variable "rhoy"),
	// and dissipation alias "ee" per the paper's YAML.
	f.AddVar("rhoy", append([]float64(nil), r...))
	f.AddVar("ee", append([]float64(nil), f.Var("dissipation")...))
	return f
}

// layeredMode resolves a mode on the Craya–Herring basis of the gravity
// axis, weights its vertical part by the Froude number and damps modes
// with a large wavenumber along gravity.
func (c StratifiedConfig) layeredMode(kx, ky, kz, k2 float64, du, dv, dw complex128) (complex128, complex128, complex128) {
	kmag := math.Sqrt(k2)
	// Gravity unit vector.
	var gx, gy, gz float64
	var kg float64 // wavenumber component along gravity
	switch c.GravityAxis {
	case 1:
		gy, kg = 1, ky
	default:
		gz, kg = 1, kz
	}
	// Craya-Herring basis: e1 = k×ĝ/|k×ĝ| is perpendicular to gravity
	// (purely "horizontal"); e2 = k×e1/|k| carries the vertical motion.
	// Both are ⊥ k, so any combination is exactly divergence-free.
	// Weighting e2 by the Froude number suppresses vertical velocity
	// without breaking solenoidality.
	c1x := ky*gz - kz*gy
	c1y := kz*gx - kx*gz
	c1z := kx*gy - ky*gx
	n1 := math.Sqrt(c1x*c1x + c1y*c1y + c1z*c1z)
	var e1x, e1y, e1z float64
	if n1 < 1e-12 {
		// k parallel to gravity: pick any horizontal direction.
		e1x, e1y, e1z = 1, 0, 0
		if gx == 1 {
			e1x, e1y = 0, 1
		}
	} else {
		e1x, e1y, e1z = c1x/n1, c1y/n1, c1z/n1
	}
	e2x := (ky*e1z - kz*e1y) / kmag
	e2y := (kz*e1x - kx*e1z) / kmag
	e2z := (kx*e1y - ky*e1x) / kmag

	a1 := complex(e1x, 0)*du + complex(e1y, 0)*dv + complex(e1z, 0)*dw
	a2 := (complex(e2x, 0)*du + complex(e2y, 0)*dv + complex(e2z, 0)*dw) * complex(c.Froude, 0)

	aniso := math.Exp(-c.AnisoFactor * (kg * kg) / (stratKPeak * stratKPeak))
	amp := complex(math.Sqrt(modelSpectrum(kmag, stratKPeak)/k2)*aniso, 0)
	return (a1*complex(e1x, 0) + a2*complex(e2x, 0)) * amp,
		(a1*complex(e1y, 0) + a2*complex(e2y, 0)) * amp,
		(a1*complex(e1z, 0) + a2*complex(e2z, 0)) * amp
}

// SSTSnapshot is snapshot t of the SST-like trajectory: an independent
// realization whose seed drifts by 1009 per step and whose velocity RMS
// decays as e^(−0.02t), a slow re-laminarization trend. SSTDataset
// materializes it and stream.SynthSource generates it on demand.
func SSTSnapshot(cfg StratifiedConfig, t int) *grid.Field {
	cfg.Seed += int64(t) * 1009
	f := stratified(cfg, math.Exp(-0.02*float64(t)))
	f.Time = float64(t)
	return f
}

// SSTDataset builds a multi-snapshot SST-like dataset from SSTSnapshot,
// emulating the time-evolving Taylor-Green ensemble (use cfd3d.Evolve for
// the dynamically consistent version).
func SSTDataset(label string, nSnapshots int, cfg StratifiedConfig) *grid.Dataset {
	snaps := make([]*grid.Field, nSnapshots)
	for t := range snaps {
		snaps[t] = SSTSnapshot(cfg, t)
	}
	return &grid.Dataset{
		Label:       label,
		Description: "3D stably stratified turbulence (synthetic SST analogue)",
		Snapshots:   snaps,
		InputVars:   []string{"u", "v", "w", "r"},
		OutputVars:  []string{"p"},
		ClusterVar:  "pv",
	}
}
