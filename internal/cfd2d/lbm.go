// Package cfd2d simulates the paper's OF2D case — 2-D incompressible flow
// over a circular cylinder with periodic vortex shedding — using a D2Q9
// lattice-Boltzmann (BGK) solver with half-way bounce-back on the cylinder
// and a momentum-exchange drag evaluation. It replaces the OpenFOAM
// simulation the paper used: the learning problem only needs u, v, p
// snapshots of a Kármán vortex street plus a fluctuating drag signal, which
// the LBM reproduces at small scale.
package cfd2d

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/tensor"
)

// D2Q9 lattice directions and weights.
var (
	ex = [9]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	ey = [9]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	wt = [9]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	// opp[i] is the direction opposite to i (for bounce-back).
	opp = [9]int{0, 3, 4, 1, 2, 7, 8, 5, 6}
)

// Config describes the cylinder-flow setup in lattice units.
type Config struct {
	Nx, Ny   int     // lattice size, default 300×120
	U0       float64 // inflow velocity (lattice), default 0.1
	Reynolds float64 // Re = U0·D/ν, default 150
	D        float64 // cylinder diameter in cells, default Ny/6
	Cx, Cy   float64 // cylinder center, default (Ny/2, Ny/2)
}

func (c *Config) defaults() {
	if c.Nx == 0 {
		c.Nx = 300
	}
	if c.Ny == 0 {
		c.Ny = 120
	}
	if c.U0 == 0 {
		c.U0 = 0.1
	}
	if c.Reynolds == 0 {
		c.Reynolds = 150
	}
	if c.D == 0 {
		c.D = float64(c.Ny) / 6
	}
	if c.Cx == 0 {
		c.Cx = float64(c.Ny) / 2
	}
	if c.Cy == 0 {
		c.Cy = float64(c.Ny) / 2
	}
}

// Solver is a D2Q9 BGK lattice-Boltzmann solver.
type Solver struct {
	Cfg   Config
	Nx    int
	Ny    int
	Tau   float64
	f     []float64 // 9 × Nx × Ny, direction-major
	ftmp  []float64
	Solid []bool
	Steps int
	// Per-(direction, row) momentum-exchange partials; combined in index
	// order after streaming so the force sum is deterministic regardless
	// of how rows are scheduled across the worker pool.
	fxRow, fyRow []float64
	// Fx, Fy hold the instantaneous momentum-exchange force on the
	// cylinder from the most recent Step.
	Fx, Fy float64
}

// New builds the solver, initializing the flow to uniform inflow
// equilibrium.
func New(cfg Config) *Solver {
	cfg.defaults()
	nu := cfg.U0 * cfg.D / cfg.Reynolds
	tau := 3*nu + 0.5
	if tau <= 0.5 {
		panic(fmt.Sprintf("cfd2d: relaxation time %v <= 0.5 (unstable); increase D or lower Re", tau))
	}
	s := &Solver{
		Cfg: cfg, Nx: cfg.Nx, Ny: cfg.Ny, Tau: tau,
		f:     make([]float64, 9*cfg.Nx*cfg.Ny),
		ftmp:  make([]float64, 9*cfg.Nx*cfg.Ny),
		Solid: make([]bool, cfg.Nx*cfg.Ny),
		fxRow: make([]float64, 9*cfg.Ny),
		fyRow: make([]float64, 9*cfg.Ny),
	}
	r2 := (cfg.D / 2) * (cfg.D / 2)
	for y := 0; y < cfg.Ny; y++ {
		for x := 0; x < cfg.Nx; x++ {
			dx := float64(x) - cfg.Cx
			dy := float64(y) - cfg.Cy
			if dx*dx+dy*dy <= r2 {
				s.Solid[y*cfg.Nx+x] = true
			}
		}
	}
	// Initialize to inflow equilibrium with a deterministic transverse
	// perturbation. The phase offset matters: a perturbation that is
	// antisymmetric about the cylinder axis preserves the wake's mirror
	// symmetry and shedding never starts; the 0.7 rad shift breaks it.
	for y := 0; y < cfg.Ny; y++ {
		for x := 0; x < cfg.Nx; x++ {
			vy := 0.1 * cfg.U0 * math.Sin(2*math.Pi*float64(y)/float64(cfg.Ny)+0.7)
			s.setEquilibrium(x, y, 1.0, cfg.U0, vy)
		}
	}
	return s
}

func (s *Solver) idx(i, x, y int) int { return (i*s.Ny+y)*s.Nx + x }

func equilibrium(i int, rho, ux, uy float64) float64 {
	eu := float64(ex[i])*ux + float64(ey[i])*uy
	u2 := ux*ux + uy*uy
	return wt[i] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
}

func (s *Solver) setEquilibrium(x, y int, rho, ux, uy float64) {
	for i := 0; i < 9; i++ {
		s.f[s.idx(i, x, y)] = equilibrium(i, rho, ux, uy)
	}
}

// Macro returns density and velocity at (x, y).
func (s *Solver) Macro(x, y int) (rho, ux, uy float64) {
	for i := 0; i < 9; i++ {
		fi := s.f[s.idx(i, x, y)]
		rho += fi
		ux += fi * float64(ex[i])
		uy += fi * float64(ey[i])
	}
	if rho > 0 {
		ux /= rho
		uy /= rho
	}
	return
}

// Step advances one LBM collide-stream cycle and updates the drag force,
// decomposed over the kernel pool: collision is parallel over rows (each
// cell updates only itself) and streaming is parallel over (direction, row)
// units, whose destination writes are disjoint — every ftmp slot has a
// unique source because bounce-back targets are fluid cells whose mirrored
// source is solid and therefore skipped. Momentum exchange accumulates into
// per-(direction, row) partials combined in index order, so Step is
// bit-identical to the serial reference stepRef.
func (s *Solver) Step() { s.step(tensor.DefaultPool()) }

// stepRef is the serial reference implementation: the same decomposition
// executed inline. The parity test asserts Step == stepRef bit for bit.
func (s *Solver) stepRef() { s.step(nil) }

func (s *Solver) step(p *tensor.Pool) {
	nx, ny := s.Nx, s.Ny
	invTau := 1 / s.Tau

	// Collide: two 9-direction loops per cell.
	p.ParallelFor(ny, 18*nx*ny, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < nx; x++ {
				if s.Solid[y*nx+x] {
					continue
				}
				var rho, ux, uy float64
				base := y*nx + x
				for i := 0; i < 9; i++ {
					fi := s.f[i*nx*ny+base]
					rho += fi
					ux += fi * float64(ex[i])
					uy += fi * float64(ey[i])
				}
				ux /= rho
				uy /= rho
				for i := 0; i < 9; i++ {
					pi := i*nx*ny + base
					s.f[pi] += (equilibrium(i, rho, ux, uy) - s.f[pi]) * invTau
				}
			}
		}
	})

	// Stream with half-way bounce-back; accumulate momentum exchange into
	// per-(direction, row) partials.
	p.ParallelFor(9*ny, 9*nx*ny, func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			i, y := u/ny, u%ny
			plane := i * nx * ny
			oplane := opp[i] * nx * ny
			yd := y + ey[i]
			// Periodic in y.
			if yd < 0 {
				yd += ny
			} else if yd >= ny {
				yd -= ny
			}
			var fx, fy float64
			for x := 0; x < nx; x++ {
				src := plane + y*nx + x
				if s.Solid[y*nx+x] {
					continue
				}
				xd := x + ex[i]
				if xd < 0 || xd >= nx {
					// Populations leaving through x=0 / x=nx-1 are NOT
					// copied into ftmp: both boundary columns are fully
					// regenerated below (inflow equilibrium, outflow
					// zero-gradient copy) before anything reads them, and
					// skipping the write keeps every ftmp slot single-writer
					// — a boundary slot is otherwise also the streaming
					// destination of a diagonal direction from the adjacent
					// row, which would race across (direction, row) units.
					continue
				}
				if s.Solid[yd*nx+xd] {
					// Bounce back into the opposite direction at the same
					// node; momentum 2·e_i·f_i is transferred to the body.
					s.ftmp[oplane+y*nx+x] = s.f[src]
					fx += 2 * float64(ex[i]) * s.f[src]
					fy += 2 * float64(ey[i]) * s.f[src]
					continue
				}
				s.ftmp[plane+yd*nx+xd] = s.f[src]
			}
			s.fxRow[u] = fx
			s.fyRow[u] = fy
		}
	})
	var fx, fy float64
	for u := 0; u < 9*ny; u++ {
		fx += s.fxRow[u]
		fy += s.fyRow[u]
	}
	s.f, s.ftmp = s.ftmp, s.f
	s.Fx, s.Fy = fx, fy

	// Inflow (x=0): impose equilibrium at (U0, 0).
	for y := 0; y < ny; y++ {
		if !s.Solid[y*nx] {
			s.setEquilibrium(0, y, 1.0, s.Cfg.U0, 0)
		}
	}
	// Outflow (x=nx-1): zero-gradient copy from the neighbor column.
	for y := 0; y < ny; y++ {
		if s.Solid[y*nx+nx-1] {
			continue
		}
		for i := 0; i < 9; i++ {
			s.f[s.idx(i, nx-1, y)] = s.f[s.idx(i, nx-2, y)]
		}
	}
	s.Steps++
}

// DragCoefficient returns Cd = 2Fx/(ρ U0² D) for the latest step.
func (s *Solver) DragCoefficient() float64 {
	return 2 * s.Fx / (1.0 * s.Cfg.U0 * s.Cfg.U0 * s.Cfg.D)
}

// Snapshot exports u, v, p (lattice pressure c_s²ρ) and vorticity as a
// grid.Field. Solid cells carry zero velocity.
func (s *Solver) Snapshot() *grid.Field {
	f := grid.NewField(s.Nx, s.Ny, 1)
	f.Time = float64(s.Steps)
	u := f.AddVar("u", nil)
	v := f.AddVar("v", nil)
	p := f.AddVar("p", nil)
	for y := 0; y < s.Ny; y++ {
		for x := 0; x < s.Nx; x++ {
			id := f.Idx(x, y, 0)
			if s.Solid[y*s.Nx+x] {
				p[id] = 1.0 / 3
				continue
			}
			rho, ux, uy := s.Macro(x, y)
			u[id] = ux
			v[id] = uy
			p[id] = rho / 3
		}
	}
	f.ComputeVorticityZ()
	return f
}

// OF2DDataset runs the cylinder simulation, discards warmup steps, then
// records nSnapshots every stepsPer steps together with the per-snapshot
// drag coefficient (the sample-single regression target of Fig. 6).
func OF2DDataset(cfg Config, warmup, nSnapshots, stepsPer int) *grid.Dataset {
	s := New(cfg)
	for i := 0; i < warmup; i++ {
		s.Step()
	}
	snaps := make([]*grid.Field, 0, nSnapshots)
	drags := make([]float64, 0, nSnapshots)
	for t := 0; t < nSnapshots; t++ {
		for i := 0; i < stepsPer; i++ {
			s.Step()
		}
		snaps = append(snaps, s.Snapshot())
		drags = append(drags, s.DragCoefficient())
	}
	return &grid.Dataset{
		Label:         "OF2D",
		Description:   "2D laminar flow over cylinder (lattice-Boltzmann analogue of the OpenFOAM case)",
		Snapshots:     snaps,
		InputVars:     []string{"u", "v"},
		OutputVars:    []string{"p"},
		ClusterVar:    "wz",
		GlobalTargets: drags,
	}
}
