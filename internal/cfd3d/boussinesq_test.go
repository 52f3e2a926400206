package cfd3d

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/spectral"
	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// kineticEnergy returns the volume-averaged kinetic energy ½⟨|u|²⟩.
func (s *Solver) kineticEnergy() float64 {
	e := 0.0
	for i := range s.U {
		e += s.U[i]*s.U[i] + s.V[i]*s.V[i] + s.W[i]*s.W[i]
	}
	return 0.5 * e / float64(len(s.U))
}

// maxDivergence returns the max |∇·u| (spectral), a solver health check.
func (s *Solver) maxDivergence() float64 {
	n := s.N
	dudx := spectral.Gradient(s.U, n, n, n)[0]
	dvdy := spectral.Gradient(s.V, n, n, n)[1]
	dwdz := spectral.Gradient(s.W, n, n, n)[2]
	m := 0.0
	for i := range dudx {
		if d := math.Abs(dudx[i] + dvdy[i] + dwdz[i]); d > m {
			m = d
		}
	}
	return m
}

func TestTaylorGreenInitProjected(t *testing.T) {
	s := NewTaylorGreen(Config{N: 16, Seed: 1})
	if d := s.maxDivergence(); d > 1e-8 {
		t.Fatalf("initial divergence %v too large", d)
	}
	ke := s.kineticEnergy()
	// TG KE = ½⟨u²+v²⟩ = ½(1/8 + 1/8) = 1/8 plus tiny noise.
	if math.Abs(ke-0.125) > 0.01 {
		t.Fatalf("initial KE = %v, want ~0.125", ke)
	}
}

func TestStepKeepsDivergenceFree(t *testing.T) {
	s := NewTaylorGreen(Config{N: 16, Seed: 2})
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if d := s.maxDivergence(); d > 1e-6 {
		t.Fatalf("divergence after 5 steps = %v", d)
	}
	if s.Steps != 5 || s.Time <= 0 {
		t.Fatalf("step bookkeeping wrong: steps=%d time=%v", s.Steps, s.Time)
	}
}

func TestViscousDecay(t *testing.T) {
	// With large viscosity and no buoyancy input, KE must decay.
	s := NewTaylorGreen(Config{N: 16, Seed: 3, Nu: 0.05, Noise: 1e-6})
	ke0 := s.kineticEnergy()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	ke1 := s.kineticEnergy()
	if !(ke1 < ke0) {
		t.Fatalf("KE should decay: %v -> %v", ke0, ke1)
	}
	// Rough check against the analytic TG decay rate exp(-2·nu·t·k²) with
	// k²=3: order of magnitude only, since the flow is nonlinear.
	if ke1 > ke0*0.999 {
		t.Fatalf("decay too weak: %v -> %v", ke0, ke1)
	}
}

func TestStratificationLimitsVerticalMotion(t *testing.T) {
	// Strong stratification should keep w small relative to the
	// unstratified run after the same number of steps.
	weak := NewTaylorGreen(Config{N: 16, Seed: 4, BruntN: 1e-3, Noise: 0.05})
	strong := NewTaylorGreen(Config{N: 16, Seed: 4, BruntN: 4, Noise: 0.05})
	for i := 0; i < 30; i++ {
		weak.Step()
		strong.Step()
	}
	wrms := func(w []float64) float64 {
		s := 0.0
		for _, x := range w {
			s += x * x
		}
		return math.Sqrt(s / float64(len(w)))
	}
	if wrms(strong.W) > wrms(weak.W)*1.2 {
		t.Fatalf("stratification failed to limit w: strong=%v weak=%v",
			wrms(strong.W), wrms(weak.W))
	}
	// Density perturbations must develop under stratification.
	if wrms(strong.R) == 0 {
		t.Fatal("density field never evolved")
	}
}

func TestSnapshotVariables(t *testing.T) {
	s := NewTaylorGreen(Config{N: 16, Seed: 5})
	s.Step()
	f := s.Snapshot()
	for _, v := range []string{"u", "v", "w", "r", "p", "dissipation", "pv"} {
		if !f.HasVar(v) {
			t.Fatalf("snapshot missing %q", v)
		}
	}
	// Snapshot must be a copy: mutating it must not corrupt the solver.
	f.Var("u")[0] = 1e9
	if s.U[0] == 1e9 {
		t.Fatal("snapshot aliases solver state")
	}
}

func TestEvolveDataset(t *testing.T) {
	d := EvolveDataset("SST-P1F4-TEST", 3, 2, Config{N: 16, Seed: 6})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NTime() != 3 {
		t.Fatalf("NTime = %d", d.NTime())
	}
	if d.Snapshots[2].Time <= d.Snapshots[1].Time {
		t.Fatal("snapshot times must increase")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := NewTaylorGreen(Config{N: 16, Seed: 7})
	b := NewTaylorGreen(Config{N: 16, Seed: 7})
	for i := 0; i < 3; i++ {
		a.Step()
		b.Step()
	}
	for i := range a.U {
		if a.U[i] != b.U[i] {
			t.Fatal("same seed must reproduce trajectory")
		}
	}
}

func BenchmarkStep16(b *testing.B) {
	s := NewTaylorGreen(Config{N: 16, Seed: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestStepBitIdenticalToSerialRef evolves two identically seeded solvers,
// one through the pooled Step and one through the serial reference, and
// asserts all four fields agree bit for bit, at N = 16 and at the bench's
// N = 32.
func TestStepBitIdenticalToSerialRef(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	for _, n := range []int{16, 32} {
		a := NewTaylorGreen(Config{N: n, Seed: 3})
		b := NewTaylorGreen(Config{N: n, Seed: 3})
		for step := 0; step < 8; step++ {
			a.Step()
			b.stepRef()
		}
		fields := [][2][]float64{{a.U, b.U}, {a.V, b.V}, {a.W, b.W}, {a.R, b.R}}
		names := []string{"U", "V", "W", "R"}
		for fi, pair := range fields {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("N=%d: %s[%d] differs after 8 steps: %v vs %v",
						n, names[fi], i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestStepAllocs: a steady-state step at N = 32 reuses its fields, grids
// and tile slabs; what is left is the closures handed to the pool.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	s := NewTaylorGreen(Config{N: 32, Seed: 1})
	s.Step()
	if a := testing.AllocsPerRun(5, s.Step); a > 16 {
		t.Fatalf("steady-state Step at N=32 allocates %v objects, want <= 16", a)
	}
}

// BenchmarkBoussinesqStep measures solver throughput. The fields, the
// projection's grids and their tile slabs are reused, so a step allocates
// only the closures it hands to the kernel pool (TestStepAllocs).
func BenchmarkBoussinesqStep(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := NewTaylorGreen(Config{N: n, Seed: 1})
			s.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// TestGoldenEvolveDataset pins the SHA-256 of every variable of a short
// N = 32 trajectory, recorded from the per-line FFT and the per-cell `%`
// stencil: the plan, the tiles, the forward-once pressure and the row
// offsets must reproduce it bit for bit.
func TestGoldenEvolveDataset(t *testing.T) {
	d := EvolveDataset("golden", 4, 2, Config{N: 32, Seed: 1})
	h := sha256.New()
	var b [8]byte
	for _, s := range d.Snapshots {
		for _, name := range []string{"u", "v", "w", "r", "p", "dissipation", "pv"} {
			for _, x := range s.Var(name) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	const want = "da919156b4b12ad972ff4bd689846e763a57a1a99432d252fd0f26e4c5478e9d"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("EvolveDataset(N 32, 4 snapshots, 2 steps) sha256 = %s, want %s", got, want)
	}
}
