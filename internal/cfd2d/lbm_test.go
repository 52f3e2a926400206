package cfd2d

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// liftCoefficient returns Cl = 2Fy/(ρ U0² D) for the latest step.
func (s *Solver) liftCoefficient() float64 {
	return 2 * s.Fy / (1.0 * s.Cfg.U0 * s.Cfg.U0 * s.Cfg.D)
}

func TestEquilibriumConservesMoments(t *testing.T) {
	rho, ux, uy := 1.1, 0.07, -0.03
	var srho, sux, suy float64
	for i := 0; i < 9; i++ {
		fi := equilibrium(i, rho, ux, uy)
		srho += fi
		sux += fi * float64(ex[i])
		suy += fi * float64(ey[i])
	}
	if math.Abs(srho-rho) > 1e-12 {
		t.Fatalf("Σfeq = %v, want %v", srho, rho)
	}
	if math.Abs(sux-rho*ux) > 1e-12 || math.Abs(suy-rho*uy) > 1e-12 {
		t.Fatalf("momentum (%v,%v), want (%v,%v)", sux, suy, rho*ux, rho*uy)
	}
}

func TestOppositeDirections(t *testing.T) {
	for i := 0; i < 9; i++ {
		o := opp[i]
		if ex[o] != -ex[i] || ey[o] != -ey[i] {
			t.Fatalf("opp[%d]=%d is not the reverse direction", i, o)
		}
	}
}

func TestUniformFlowStaysUniform(t *testing.T) {
	// Without a cylinder (D tiny, placed out of domain effectively) a
	// uniform flow is an exact LBM fixed point away from boundaries.
	cfg := Config{Nx: 40, Ny: 16, U0: 0.08, Reynolds: 50, D: 2, Cx: -100, Cy: -100}
	s := New(cfg)
	for i := range s.Solid {
		s.Solid[i] = false
	}
	// Overwrite the shedding-trigger perturbation with exact uniform flow.
	for y := 0; y < s.Ny; y++ {
		for x := 0; x < s.Nx; x++ {
			s.setEquilibrium(x, y, 1.0, cfg.U0, 0)
		}
	}
	for i := 0; i < 20; i++ {
		s.Step()
	}
	for y := 0; y < s.Ny; y++ {
		for x := 1; x < s.Nx-1; x++ {
			_, ux, uy := s.Macro(x, y)
			if math.Abs(ux-0.08) > 1e-3 || math.Abs(uy) > 1e-3 {
				t.Fatalf("uniform flow drifted at (%d,%d): u=(%v,%v)", x, y, ux, uy)
			}
		}
	}
}

func TestCylinderBlocksFlowAndProducesDrag(t *testing.T) {
	s := New(Config{Nx: 120, Ny: 48, U0: 0.1, Reynolds: 60, D: 10, Cx: 24, Cy: 24})
	for i := 0; i < 400; i++ {
		s.Step()
	}
	if s.Fx <= 0 {
		t.Fatalf("drag force should be positive (downstream), got %v", s.Fx)
	}
	cd := s.DragCoefficient()
	// Cylinder drag coefficient at Re~60 is O(1); accept a broad band, the
	// shape of the signal matters more than the absolute value.
	if cd < 0.3 || cd > 6 {
		t.Fatalf("Cd = %v, outside plausible range", cd)
	}
	// Wake deficit: velocity right behind the cylinder must be below inflow.
	_, uxWake, _ := s.Macro(36, 24)
	if uxWake > 0.8*s.Cfg.U0 {
		t.Fatalf("no wake deficit: u behind cylinder = %v", uxWake)
	}
}

func TestVortexSheddingOscillatesLift(t *testing.T) {
	if testing.Short() {
		t.Skip("shedding test is long")
	}
	s := New(Config{Nx: 200, Ny: 80, U0: 0.12, Reynolds: 120, D: 16, Cx: 40, Cy: 40})
	// Warm up past the symmetric transient.
	for i := 0; i < 4000; i++ {
		s.Step()
	}
	minCl, maxCl := math.Inf(1), math.Inf(-1)
	for i := 0; i < 3000; i++ {
		s.Step()
		cl := s.liftCoefficient()
		if cl < minCl {
			minCl = cl
		}
		if cl > maxCl {
			maxCl = cl
		}
	}
	// Shedding produces an oscillating lift with amplitude well above noise.
	if maxCl-minCl < 0.05 {
		t.Fatalf("no vortex shedding detected: lift range [%v, %v]", minCl, maxCl)
	}
}

func TestSnapshotFields(t *testing.T) {
	s := New(Config{Nx: 60, Ny: 24, U0: 0.1, Reynolds: 40, D: 6, Cx: 12, Cy: 12})
	for i := 0; i < 50; i++ {
		s.Step()
	}
	f := s.Snapshot()
	for _, v := range []string{"u", "v", "p", "wz"} {
		if !f.HasVar(v) {
			t.Fatalf("snapshot missing %q", v)
		}
	}
	// Solid cells carry zero velocity.
	if f.Var("u")[f.Idx(12, 12, 0)] != 0 {
		t.Fatal("velocity inside cylinder should be zero")
	}
	// Inflow region carries roughly U0.
	if math.Abs(f.Var("u")[f.Idx(1, 20, 0)]-0.1) > 0.05 {
		t.Fatalf("inflow u = %v", f.Var("u")[f.Idx(1, 20, 0)])
	}
}

func TestOF2DDataset(t *testing.T) {
	d := OF2DDataset(Config{Nx: 80, Ny: 32, U0: 0.1, Reynolds: 50, D: 8, Cx: 16, Cy: 16}, 100, 4, 20)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.GlobalTargets) != 4 {
		t.Fatalf("want 4 drag targets, got %d", len(d.GlobalTargets))
	}
	for i, cd := range d.GlobalTargets {
		if cd <= 0 {
			t.Fatalf("drag target %d = %v, want positive", i, cd)
		}
	}
}

func TestMassConservationInterior(t *testing.T) {
	// Total mass in a fully periodic, solid-free system is conserved.
	cfg := Config{Nx: 32, Ny: 16, U0: 0.05, Reynolds: 50, D: 2, Cx: -50, Cy: -50}
	s := New(cfg)
	for i := range s.Solid {
		s.Solid[i] = false
	}
	mass := func() float64 {
		m := 0.0
		for y := 0; y < s.Ny; y++ {
			for x := 0; x < s.Nx; x++ {
				rho, _, _ := s.Macro(x, y)
				m += rho
			}
		}
		return m
	}
	m0 := mass()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	m1 := mass()
	// Inflow/outflow columns exchange a little mass; interior drift must be
	// tiny.
	if math.Abs(m1-m0)/m0 > 0.01 {
		t.Fatalf("mass drifted %v -> %v", m0, m1)
	}
}

func BenchmarkLBMStep(b *testing.B) {
	s := New(Config{Nx: 200, Ny: 80})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestStepBitIdenticalToSerialRef runs two identically configured solvers,
// one through the pooled Step and one through the serial reference, and
// asserts the full distribution state and forces agree bit for bit. At
// 96×48 only the collision splits; at 192×96 the streaming does too.
func TestStepBitIdenticalToSerialRef(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	for _, cfg := range []Config{{Nx: 96, Ny: 48}, {Nx: 192, Ny: 96}} {
		a, b := New(cfg), New(cfg)
		for step := 0; step < 25; step++ {
			a.Step()
			b.stepRef()
		}
		for i := range a.f {
			if math.Float64bits(a.f[i]) != math.Float64bits(b.f[i]) {
				t.Fatalf("%d×%d, step 25: f[%d] differs: %v vs %v", cfg.Nx, cfg.Ny, i, a.f[i], b.f[i])
			}
		}
		if math.Float64bits(a.Fx) != math.Float64bits(b.Fx) ||
			math.Float64bits(a.Fy) != math.Float64bits(b.Fy) {
			t.Fatalf("%d×%d: forces differ: (%v,%v) vs (%v,%v)", cfg.Nx, cfg.Ny, a.Fx, a.Fy, b.Fx, b.Fy)
		}
	}
}

// BenchmarkLBMStepAllocs asserts the solver step allocates nothing at
// steady state (scratch lives on the Solver).
func BenchmarkLBMStepAllocs(b *testing.B) {
	s := New(Config{Nx: 150, Ny: 60})
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
