// Package cfd3d implements a coarse pseudo-spectral/finite-difference
// Boussinesq solver used to evolve Taylor-Green vortices into stratified
// turbulence — the dynamically consistent substitute for the paper's
// SST-P1F4 "T-G[i] time evolving" DNS trajectory (Table 1). Advection and
// diffusion use second-order central differences; incompressibility is
// enforced by a spectral pressure projection on the triply periodic domain.
package cfd3d

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/grid"
	"repro/internal/spectral"
	"repro/internal/tensor"
)

// Config sets up the Boussinesq solver. The density diffusivity equals Nu
// (Prandtl number 1, as in SST-P1) and the time step is 0.25·h, a CFL step
// for the Taylor-Green u_max ≈ 1; neither is configurable.
type Config struct {
	N      int     // cube edge (power of two)
	Nu     float64 // kinematic viscosity, default 5e-3
	BruntN float64 // buoyancy frequency of the stable background, default 1
	Noise  float64 // initial perturbation amplitude, default 0.01
	Seed   int64
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 32
	}
	if c.Nu == 0 {
		c.Nu = 5e-3
	}
	if c.BruntN == 0 {
		c.BruntN = 1
	}
	if c.Noise == 0 {
		c.Noise = 0.01
	}
}

// Solver holds the evolving state. Density r is the perturbation about the
// linear stable background; buoyancy b = -N²·r couples it to w.
type Solver struct {
	Cfg        Config
	N          int
	H          float64 // grid spacing (domain 2π)
	U, V, W, R []float64
	Time       float64
	Steps      int
	// Persistent scratch: the next-state fields Step writes into (swapped
	// with the live fields each step) and the spectral grids the projection
	// reuses, so the steady-state step allocates nothing.
	scrU, scrV, scrW, scrR []float64
	gu, gv, gw             *spectral.Grid3
}

// NewTaylorGreen initializes the classic Taylor-Green vortex array
// u = sin x cos y cos z, v = -cos x sin y cos z, w = 0 with a small random
// perturbation that seeds the transition to turbulence.
func NewTaylorGreen(cfg Config) *Solver {
	cfg.defaults()
	n := cfg.N
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("cfd3d: N must be a power of two, got %d", n))
	}
	s := &Solver{Cfg: cfg, N: n, H: 2 * math.Pi / float64(n)}
	np := n * n * n
	s.U = make([]float64, np)
	s.V = make([]float64, np)
	s.W = make([]float64, np)
	s.R = make([]float64, np)
	s.scrU = make([]float64, np)
	s.scrV = make([]float64, np)
	s.scrW = make([]float64, np)
	s.scrR = make([]float64, np)
	s.gu = spectral.NewGrid3(n, n, n)
	s.gv = spectral.NewGrid3(n, n, n)
	s.gw = spectral.NewGrid3(n, n, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := 0; k < n; k++ {
		z := float64(k) * s.H
		for j := 0; j < n; j++ {
			y := float64(j) * s.H
			for i := 0; i < n; i++ {
				x := float64(i) * s.H
				idx := (k*n+j)*n + i
				s.U[idx] = math.Sin(x)*math.Cos(y)*math.Cos(z) + cfg.Noise*rng.NormFloat64()
				s.V[idx] = -math.Cos(x)*math.Sin(y)*math.Cos(z) + cfg.Noise*rng.NormFloat64()
				s.W[idx] = cfg.Noise * rng.NormFloat64()
				s.R[idx] = 0
			}
		}
	}
	s.project()
	return s
}

// stencil addresses a cell's periodic neighbours: the offsets of its row
// and of the y/z neighbour rows, its x index and the wrapped i±1.
type stencil struct{ row, yp, ym, zp, zm, i, ip, im int }

// at returns the advection u·∇f by central differences, each
// (f[+]−f[−])/(2H), and the 7-point Laplacian of f at the cell.
func (nb *stencil) at(f []float64, u, v, w, h2, hh float64) (adv, lap float64) {
	c := f[nb.row+nb.i]
	xp, xm := f[nb.row+nb.ip], f[nb.row+nb.im]
	yp, ym := f[nb.yp+nb.i], f[nb.ym+nb.i]
	zp, zm := f[nb.zp+nb.i], f[nb.zm+nb.i]
	adv = u*((xp-xm)/h2) + v*((yp-ym)/h2) + w*((zp-zm)/h2)
	lap = (xp + xm + yp + ym + zp + zm - 6*c) / hh
	return adv, lap
}

// Step advances one explicit Euler step with pressure projection. The
// finite-difference update reads only the previous-state fields and writes
// only the scratch fields, so z-planes fan out across the kernel pool with
// bit-identical results to the serial reference stepRef; the spectral
// projection parallelizes the same way (independent lines/planes).
func (s *Solver) Step() { s.step(tensor.DefaultPool()) }

// stepRef is the serial reference implementation used by the parity tests:
// the identical decomposition executed inline.
func (s *Solver) stepRef() { s.step(nil) }

func (s *Solver) step(p *tensor.Pool) {
	n := s.N
	dt := 0.25 * s.H // u_max ~ 1 for Taylor-Green
	nu := s.Cfg.Nu
	n2 := s.Cfg.BruntN * s.Cfg.BruntN

	nu2, nv2, nw2, nr2 := s.scrU, s.scrV, s.scrW, s.scrR

	h2, hh := 2*s.H, s.H*s.H
	p.ParallelFor(n, 28*n*n*n, func(k0, k1 int) { // 4 fields × a 7-point stencil per cell
		for k := k0; k < k1; k++ {
			for j := 0; j < n; j++ {
				nb := stencil{row: (k*n + j) * n,
					yp: (k*n + (j+1)%n) * n, ym: (k*n + (j+n-1)%n) * n,
					zp: ((k+1)%n*n + j) * n, zm: ((k+n-1)%n*n + j) * n}
				for i := 0; i < n; i++ {
					nb.i, nb.ip, nb.im = i, i+1, i-1
					if i == n-1 {
						nb.ip = 0
					}
					if i == 0 {
						nb.im = n - 1
					}
					id := nb.row + i
					u, v, w := s.U[id], s.V[id], s.W[id]
					advU, lapU := nb.at(s.U, u, v, w, h2, hh)
					advV, lapV := nb.at(s.V, u, v, w, h2, hh)
					advW, lapW := nb.at(s.W, u, v, w, h2, hh)
					advR, lapR := nb.at(s.R, u, v, w, h2, hh)
					nu2[id] = u + dt*(-advU+nu*lapU)
					nv2[id] = v + dt*(-advV+nu*lapV)
					// Buoyancy couples w and r as a local oscillator at
					// frequency N. Explicit Euler amplifies oscillations
					// (growth √(1+(N·dt)²) per step), so the w↔r pair is
					// advanced semi-implicitly: the 2×2 linear system
					//   w' = A - dt·N²·r',  r' = B + dt·w'
					// is solved in closed form, which is neutrally stable.
					a := w + dt*(-advW+nu*lapW)
					bb := s.R[id] + dt*(-advR+nu*lapR) // κ = ν
					wNew := (a - dt*n2*bb) / (1 + dt*dt*n2)
					nw2[id] = wNew
					nr2[id] = bb + dt*wNew
				}
			}
		}
	})
	s.U, s.V, s.W, s.R, s.scrU, s.scrV, s.scrW, s.scrR =
		nu2, nv2, nw2, nr2, s.U, s.V, s.W, s.R
	s.projectP(p)
	s.Time += dt
	s.Steps++
}

// project removes the divergent part of the velocity with a direct
// solenoidal projection in spectral space: û ← û − k̂(k̂·û). Nyquist planes
// are zeroed (they are self-conjugate, so the projection would break
// Hermitian symmetry there; zeroing doubles as a mild dealiasing filter).
func (s *Solver) project() { s.projectP(tensor.DefaultPool()) }

func (s *Solver) projectP(p *tensor.Pool) {
	n := s.N
	gu, gv, gw := s.gu, s.gv, s.gw
	gu.FromReal(s.U)
	gv.FromReal(s.V)
	gw.FromReal(s.W)
	gu.FFT3()
	gv.FFT3()
	gw.FFT3()
	// The per-mode projection is independent cell-wise; fan out z-planes.
	p.ParallelFor(n, 3*n*n*n, func(k0, k1 int) { // 3 components per mode
		for k := k0; k < k1; k++ {
			kz := spectral.WaveNumber(k, n)
			for j := 0; j < n; j++ {
				ky := spectral.WaveNumber(j, n)
				for i := 0; i < n; i++ {
					kx := spectral.WaveNumber(i, n)
					idx := (k*n+j)*n + i
					if i == n/2 || j == n/2 || k == n/2 {
						gu.Data[idx], gv.Data[idx], gw.Data[idx] = 0, 0, 0
						continue
					}
					k2 := kx*kx + ky*ky + kz*kz
					if k2 == 0 {
						continue // mean flow is divergence-free; keep it
					}
					du, dv, dw := gu.Data[idx], gv.Data[idx], gw.Data[idx]
					dot := (complex(kx, 0)*du + complex(ky, 0)*dv + complex(kz, 0)*dw) / complex(k2, 0)
					gu.Data[idx] = du - complex(kx, 0)*dot
					gv.Data[idx] = dv - complex(ky, 0)*dot
					gw.Data[idx] = dw - complex(kz, 0)*dot
				}
			}
		}
	})
	gu.IFFT3()
	gv.IFFT3()
	gw.IFFT3()
	gu.RealPart(s.U)
	gv.RealPart(s.V)
	gw.RealPart(s.W)
}

// Snapshot exports the current state as a grid.Field with the SST variable
// set: u, v, w, r plus derived p, dissipation, pv.
func (s *Solver) Snapshot() *grid.Field {
	n := s.N
	f := grid.NewField(n, n, n)
	f.Dx, f.Dy, f.Dz = s.H, s.H, s.H
	f.Time = s.Time
	f.AddVar("u", append([]float64(nil), s.U...))
	f.AddVar("v", append([]float64(nil), s.V...))
	f.AddVar("w", append([]float64(nil), s.W...))
	f.AddVar("r", append([]float64(nil), s.R...))
	f.AddVar("p", spectral.PressureFromVelocity(s.U, s.V, s.W, n, n, n))
	f.ComputeDissipation(s.Cfg.Nu)
	f.ComputePotentialVorticity()
	return f
}

// EvolveDataset runs the Taylor-Green trajectory for nSnapshots, taking a
// snapshot every stepsPer steps — the SST-P1F4 analogue with genuine
// laminar → turbulent → re-laminarizing dynamics.
func EvolveDataset(label string, nSnapshots, stepsPer int, cfg Config) *grid.Dataset {
	s := NewTaylorGreen(cfg)
	snaps := make([]*grid.Field, 0, nSnapshots)
	for t := 0; t < nSnapshots; t++ {
		if t > 0 {
			for st := 0; st < stepsPer; st++ {
				s.Step()
			}
		}
		snaps = append(snaps, s.Snapshot())
	}
	return &grid.Dataset{
		Label:       label,
		Description: "3D Taylor-Green-initialized stratified trajectory (synthetic SST-P1F4 analogue)",
		Snapshots:   snaps,
		InputVars:   []string{"u", "v", "w", "r"},
		OutputVars:  []string{"p"},
		ClusterVar:  "pv",
	}
}
