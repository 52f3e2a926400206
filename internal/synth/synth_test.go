package synth

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/spectral"
	"repro/internal/stats"
)

// rms is the root-mean-square of one variable of a field.
func rms(f *grid.Field, name string) float64 {
	v := f.Var(name)
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s / float64(len(v)))
}

// energySpectrum computes the shell-averaged kinetic-energy spectrum E(k)
// of the velocity field (u, v, w) on a periodic cube. Returns E indexed by
// integer wavenumber shell.
func energySpectrum(u, v, w []float64, nx, ny, nz int) []float64 {
	kmax := int(math.Sqrt(float64(nx*nx+ny*ny+nz*nz))/2) + 1
	e := make([]float64, kmax)
	norm := 1 / float64(nx*ny*nz)
	for _, vel := range [][]float64{u, v, w} {
		g := spectral.NewGrid3(nx, ny, nz)
		g.FromReal(vel)
		g.FFT3()
		for k := 0; k < nz; k++ {
			kz := spectral.WaveNumber(k, nz)
			for j := 0; j < ny; j++ {
				ky := spectral.WaveNumber(j, ny)
				for i := 0; i < nx; i++ {
					kx := spectral.WaveNumber(i, nx)
					kmag := math.Sqrt(kx*kx + ky*ky + kz*kz)
					shell := int(kmag + 0.5)
					if shell >= kmax {
						continue
					}
					c := g.Data[(k*ny+j)*nx+i]
					amp := real(c)*real(c) + imag(c)*imag(c)
					e[shell] += 0.5 * amp * norm * norm
				}
			}
		}
	}
	return e
}

func TestEnergySpectrumSingleMode(t *testing.T) {
	// u = sin(3x): all energy in shell k=3; E(3) = ¼ per Fourier pair... just
	// verify the shell location and total.
	nx, ny, nz := 32, 8, 8
	u := make([]float64, nx*ny*nz)
	v := make([]float64, nx*ny*nz)
	w := make([]float64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := 2 * math.Pi * float64(i) / float64(nx)
				u[(k*ny+j)*nx+i] = math.Sin(3 * x)
			}
		}
	}
	e := energySpectrum(u, v, w, nx, ny, nz)
	for shell, ev := range e {
		if shell == 3 {
			if math.Abs(ev-0.25) > 1e-9 {
				t.Fatalf("E(3) = %v, want 0.25", ev)
			}
		} else if ev > 1e-12 {
			t.Fatalf("E(%d) = %v, want 0", shell, ev)
		}
	}
}

func TestIsotropicDivergenceFree(t *testing.T) {
	f := Isotropic(IsotropicConfig{N: 16, Seed: 1})
	n := f.Nx
	u, v, w := f.Var("u"), f.Var("v"), f.Var("w")
	dudx := spectral.Gradient(u, n, n, n)[0]
	dvdy := spectral.Gradient(v, n, n, n)[1]
	dwdz := spectral.Gradient(w, n, n, n)[2]
	maxDiv, maxU := 0.0, 0.0
	for i := range dudx {
		d := math.Abs(dudx[i] + dvdy[i] + dwdz[i])
		if d > maxDiv {
			maxDiv = d
		}
		if a := math.Abs(u[i]); a > maxU {
			maxU = a
		}
	}
	if maxDiv > 1e-9*maxU {
		t.Fatalf("divergence %v too large relative to |u| %v", maxDiv, maxU)
	}
}

func TestIsotropicRMSAndIsotropy(t *testing.T) {
	f := Isotropic(IsotropicConfig{N: 32, Seed: 2})
	// Components are rescaled by a common factor (to keep the field
	// solenoidal), so each component RMS is statistically, not exactly, 1.
	// The bound is the relative one the test held at an RMS of 1.5 (±0.25).
	for _, name := range []string{"u", "v", "w"} {
		if got := rms(f, name); math.Abs(got-1) > 0.25/1.5 {
			t.Fatalf("RMS(%s) = %v, want ~1", name, got)
		}
	}
	// The mean-square over all components is exact by construction.
	tot := rms(f, "u")*rms(f, "u") + rms(f, "v")*rms(f, "v") + rms(f, "w")*rms(f, "w")
	if math.Abs(tot-3) > 1e-9 {
		t.Fatalf("total KE = %v, want 3", tot)
	}
}

func TestIsotropicSpectrumShape(t *testing.T) {
	f := Isotropic(IsotropicConfig{N: 32, Seed: 3, KPeak: 4})
	e := energySpectrum(f.Var("u"), f.Var("v"), f.Var("w"), 32, 32, 32)
	// Energy must peak near KPeak and decay beyond it.
	peak := 0
	for k := 1; k < 12; k++ {
		if e[k] > e[peak] {
			peak = k
		}
	}
	if peak < 2 || peak > 6 {
		t.Fatalf("spectrum peak at k=%d, want near 4 (E=%v)", peak, e[:12])
	}
	if e[10] >= e[4] {
		t.Fatalf("spectrum should decay beyond peak: E(10)=%v >= E(4)=%v", e[10], e[4])
	}
}

func TestIsotropicHasDerivedVars(t *testing.T) {
	f := Isotropic(IsotropicConfig{N: 16, Seed: 4})
	for _, v := range []string{"u", "v", "w", "p", "dissipation", "enstrophy"} {
		if !f.HasVar(v) {
			t.Fatalf("missing variable %q", v)
		}
	}
	// Dissipation and enstrophy are non-negative.
	for _, name := range []string{"dissipation", "enstrophy"} {
		for i, x := range f.Var(name) {
			if x < 0 {
				t.Fatalf("%s[%d] = %v < 0", name, i, x)
			}
		}
	}
}

func TestIsotropicDeterministicUnderSeed(t *testing.T) {
	a := Isotropic(IsotropicConfig{N: 16, Seed: 7})
	b := Isotropic(IsotropicConfig{N: 16, Seed: 7})
	ua, ub := a.Var("u"), b.Var("u")
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatal("same seed must reproduce the field")
		}
	}
	c := Isotropic(IsotropicConfig{N: 16, Seed: 8})
	same := true
	for i := range ua {
		if ua[i] != c.Var("u")[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestStratifiedAnisotropy(t *testing.T) {
	f := stratified(StratifiedConfig{Nx: 32, Ny: 32, Nz: 16, Seed: 5}, 1)
	// Vertical velocity must be strongly suppressed vs horizontal.
	uRMS, wRMS := rms(f, "u"), rms(f, "w")
	if wRMS > 0.5*uRMS {
		t.Fatalf("stratified field not anisotropic: w_rms=%v, u_rms=%v", wRMS, uRMS)
	}
}

func TestStratifiedDensityStableGradient(t *testing.T) {
	f := stratified(StratifiedConfig{Nx: 16, Ny: 16, Nz: 16, Seed: 6}, 1)
	r := f.Var("r")
	// Horizontally averaged density must decrease with z (stable).
	meanAt := func(k int) float64 {
		s := 0.0
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				s += r[f.Idx(i, j, k)]
			}
		}
		return s / float64(f.Nx*f.Ny)
	}
	if !(meanAt(12) < meanAt(2)) {
		t.Fatalf("density profile not stable: rho(z=12)=%v, rho(z=2)=%v", meanAt(12), meanAt(2))
	}
}

func TestStratifiedGravityAxisY(t *testing.T) {
	f := stratified(StratifiedConfig{Nx: 16, Ny: 16, Nz: 16, Seed: 7, GravityAxis: 1}, 1)
	// With gravity along y, v is the suppressed component.
	if rms(f, "v") > 0.5*rms(f, "u") {
		t.Fatalf("gravity-y field should suppress v: v_rms=%v u_rms=%v", rms(f, "v"), rms(f, "u"))
	}
	if !f.HasVar("rhoy") || !f.HasVar("ee") {
		t.Fatal("P1F100 aliases rhoy/ee missing")
	}
}

func TestStratifiedVariables(t *testing.T) {
	f := stratified(StratifiedConfig{Nx: 16, Ny: 16, Nz: 8, Seed: 8}, 1)
	for _, v := range []string{"u", "v", "w", "r", "p", "dissipation", "pv"} {
		if !f.HasVar(v) {
			t.Fatalf("missing %q", v)
		}
	}
}

func TestSSTDatasetDecays(t *testing.T) {
	d := SSTDataset("SST-TEST", 5, StratifiedConfig{Nx: 16, Ny: 16, Nz: 8, Seed: 9})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NTime() != 5 {
		t.Fatalf("NTime = %d", d.NTime())
	}
	e0 := rms(d.Snapshots[0], "u")
	e4 := rms(d.Snapshots[4], "u")
	if !(e4 < e0) {
		t.Fatalf("trajectory should decay: rms(t0)=%v rms(t4)=%v", e0, e4)
	}
}

func TestCombustionFrontStructure(t *testing.T) {
	f := Combustion(CombustionConfig{Nx: 128, Ny: 128, Seed: 10})
	c := f.Var("C")
	cv := f.Var("Cvar")
	// Left edge unburnt (~0), right edge burnt (~1).
	if c[f.Idx(2, 64, 0)] > 0.1 {
		t.Fatalf("left edge C = %v, want ~0", c[f.Idx(2, 64, 0)])
	}
	if c[f.Idx(125, 64, 0)] < 0.9 {
		t.Fatalf("right edge C = %v, want ~1", c[f.Idx(125, 64, 0)])
	}
	// Variance peaks somewhere in the middle band and is ~0 at edges.
	maxCv := 0.0
	for i := range cv {
		if cv[i] > maxCv {
			maxCv = cv[i]
		}
	}
	if maxCv < 0.1 {
		t.Fatalf("front variance never develops: max Cvar = %v", maxCv)
	}
	if cv[f.Idx(2, 64, 0)] > 0.05*maxCv {
		t.Fatal("variance should vanish away from the front")
	}
}

func TestCombustionPhaseSpaceIsClumped(t *testing.T) {
	// The defining property: the (C, Cvar) phase-space density is extremely
	// non-uniform — most mass at the (0,0)/(1,0) plateaus.
	f := Combustion(CombustionConfig{Nx: 256, Ny: 256, Seed: 11})
	pts := f.Points([]string{"C", "Cvar"}, nil)
	stats.NormalizeColumns(pts)
	h := stats.NDHistogramFromPoints(pts, 16)
	if ui := h.UniformityIndex(); ui > 0.6 {
		t.Fatalf("combustion phase space should be clumped, uniformity=%v", ui)
	}
}

func TestTC2DDatasetValid(t *testing.T) {
	d := TC2DDataset(CombustionConfig{Nx: 64, Ny: 64, Seed: 12})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIsotropic32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Isotropic(IsotropicConfig{N: 32, Seed: int64(i)})
	}
}

func BenchmarkStratified32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stratified(StratifiedConfig{Nx: 32, Ny: 32, Nz: 16, Seed: int64(i)}, 1)
	}
}
