package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdxCoordsRoundTrip(t *testing.T) {
	f := NewField(5, 7, 3)
	for k := 0; k < 3; k++ {
		for j := 0; j < 7; j++ {
			for i := 0; i < 5; i++ {
				idx := f.Idx(i, j, k)
				gi, gj, gk := f.Coords(idx)
				if gi != i || gj != j || gk != k {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", i, j, k, idx, gi, gj, gk)
				}
			}
		}
	}
}

func TestAddVarAndPoint(t *testing.T) {
	f := NewField(2, 2, 1)
	f.AddVar("u", []float64{1, 2, 3, 4})
	f.AddVar("v", []float64{10, 20, 30, 40})
	pts := f.Points([]string{"v", "u"}, []int{0, 2, 3})
	if pts[0][0] != 10 || pts[1][1] != 3 || pts[2][0] != 40 || pts[2][1] != 4 {
		t.Fatalf("Points = %v", pts)
	}
}

func TestVarPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewField(1, 1, 1).Var("nope")
}

// TestVorticitySolidBodyRotation: u = -y, v = x gives ω_z = 2 everywhere.
func TestVorticitySolidBodyRotation(t *testing.T) {
	n := 16
	f := NewField(n, n, 1)
	u := f.AddVar("u", nil)
	v := f.AddVar("v", nil)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			u[f.Idx(i, j, 0)] = -float64(j)
			v[f.Idx(i, j, 0)] = float64(i)
		}
	}
	wz := f.ComputeVorticityZ()
	// Check interior points (periodic wrap corrupts the boundary ring for
	// this non-periodic test function).
	for j := 2; j < n-2; j++ {
		for i := 2; i < n-2; i++ {
			if math.Abs(wz[f.Idx(i, j, 0)]-2) > 1e-12 {
				t.Fatalf("wz(%d,%d) = %v, want 2", i, j, wz[f.Idx(i, j, 0)])
			}
		}
	}
}

// TestEnstrophyPeriodicShear: u = sin(2πy/N) on a periodic grid. Vorticity
// ω_z = -du/dy, enstrophy = ½ω². Verified against the analytic derivative
// sampled with central differences.
func TestEnstrophyPeriodicShear(t *testing.T) {
	n := 32
	f := NewField(n, n, n)
	u := f.AddVar("u", nil)
	f.AddVar("v", nil)
	f.AddVar("w", nil)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				u[f.Idx(i, j, k)] = math.Sin(2 * math.Pi * float64(j) / float64(n))
			}
		}
	}
	ens := f.ComputeEnstrophy()
	// Central difference of sin at grid resolution: dudy = cos(2πy/N)·sin(2πh)/h·(1/2h)...
	// easier: compare against the same stencil applied analytically.
	h := 1.0
	for j := 0; j < n; j++ {
		y := float64(j)
		dudy := (math.Sin(2*math.Pi*(y+h)/float64(n)) - math.Sin(2*math.Pi*(y-h)/float64(n))) / (2 * h)
		want := 0.5 * dudy * dudy
		got := ens[f.Idx(5, j, 7)]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("enstrophy(j=%d) = %v, want %v", j, got, want)
		}
	}
}

// TestDissipationUniformFlow: constant velocity has zero dissipation.
func TestDissipationUniformFlow(t *testing.T) {
	f := NewField(8, 8, 8)
	u := f.AddVar("u", nil)
	f.AddVar("v", nil)
	f.AddVar("w", nil)
	for i := range u {
		u[i] = 3.7
	}
	eps := f.ComputeDissipation(1e-3)
	for i, e := range eps {
		if e != 0 {
			t.Fatalf("dissipation[%d] = %v, want 0", i, e)
		}
	}
}

// TestPotentialVorticityZeroWhenDensityUniform: q = ω·∇ρ = 0 if ρ constant.
func TestPotentialVorticityZeroWhenDensityUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewField(8, 8, 8)
	u := f.AddVar("u", nil)
	v := f.AddVar("v", nil)
	w := f.AddVar("w", nil)
	r := f.AddVar("r", nil)
	for i := range u {
		u[i], v[i], w[i] = rng.Float64(), rng.Float64(), rng.Float64()
		r[i] = 2.5
	}
	pv := f.ComputePotentialVorticity()
	for i, q := range pv {
		if q != 0 {
			t.Fatalf("pv[%d] = %v, want 0", i, q)
		}
	}
}

func TestTileCoversDomainExactly(t *testing.T) {
	f := NewField(64, 32, 32)
	cubes := Tile(f, 32, 32, 32)
	if len(cubes) != 2 {
		t.Fatalf("got %d cubes, want 2", len(cubes))
	}
	seen := map[int]bool{}
	for _, c := range cubes {
		for _, idx := range c.Indices(f) {
			if seen[idx] {
				t.Fatalf("index %d covered twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != f.NPoints() {
		t.Fatalf("covered %d points, want %d", len(seen), f.NPoints())
	}
}

func TestTileDropsPartialEdges(t *testing.T) {
	f := NewField(70, 32, 32) // 70 = 2*32 + 6 -> partial cube dropped
	cubes := Tile(f, 32, 32, 32)
	if len(cubes) != 2 {
		t.Fatalf("got %d cubes, want 2 (partial edge dropped)", len(cubes))
	}
}

func TestTile2DForcesSz1(t *testing.T) {
	f := NewField(64, 64, 1)
	cubes := Tile(f, 32, 32, 32)
	if len(cubes) != 4 {
		t.Fatalf("2-D tiling got %d cubes, want 4", len(cubes))
	}
	for _, c := range cubes {
		if c.Sz != 1 {
			t.Fatalf("2-D cube has Sz=%d", c.Sz)
		}
	}
}

func TestExtractPreservesValues(t *testing.T) {
	f := NewField(8, 8, 8)
	u := f.AddVar("u", nil)
	for i := range u {
		u[i] = float64(i)
	}
	h := Hypercube{I0: 2, J0: 3, K0: 4, Sx: 3, Sy: 2, Sz: 2}
	vv := h.VarValues(f, "u")
	if len(vv) != 12 {
		t.Fatalf("cube has %d values", len(vv))
	}
	// Corner check: cube(0,0,0) == f(2,3,4).
	if vv[0] != u[f.Idx(2, 3, 4)] {
		t.Fatal("cube corner mismatch")
	}
	// Cube-local (2,1,1), x-fastest, == f(4,4,5).
	if vv[(1*h.Sy+1)*h.Sx+2] != u[f.Idx(4, 4, 5)] {
		t.Fatal("cube interior mismatch")
	}
	for p, flat := range h.Indices(f) {
		if vv[p] != u[flat] {
			t.Fatal("VarValues disagrees with Indices")
		}
	}
}

// Property: tiling any grid with any cube size covers each covered point
// exactly once and never exceeds bounds.
func TestTilePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 4+rng.Intn(20), 4+rng.Intn(20), 1+rng.Intn(12)
		sx, sy, sz := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(4)
		fld := NewField(nx, ny, nz)
		cubes := Tile(fld, sx, sy, sz)
		want := (nx / sx) * (ny / sy)
		if nz == 1 {
			// 2-D forces sz=1
		} else {
			want *= nz / sz
		}
		if len(cubes) != want {
			return false
		}
		seen := map[int]bool{}
		for _, c := range cubes {
			for _, idx := range c.Indices(fld) {
				if idx < 0 || idx >= fld.NPoints() || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetValidate(t *testing.T) {
	f1 := NewField(4, 4, 1)
	f1.AddVar("u", nil)
	f1.AddVar("p", nil)
	d := &Dataset{Label: "X", Snapshots: []*Field{f1}, InputVars: []string{"u"}, OutputVars: []string{"p"}}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	d.ClusterVar = "missing"
	if err := d.Validate(); err == nil {
		t.Fatal("missing cluster var not detected")
	}
	d.ClusterVar = ""
	f2 := NewField(5, 4, 1)
	f2.AddVar("u", nil)
	f2.AddVar("p", nil)
	d.Snapshots = append(d.Snapshots, f2)
	if err := d.Validate(); err == nil {
		t.Fatal("dimension mismatch not detected")
	}
	if (&Dataset{Label: "empty"}).Validate() == nil {
		t.Fatal("empty dataset not detected")
	}
}

func TestDatasetStrings(t *testing.T) {
	f := NewField(512, 512, 256)
	f.AddVar("u", nil)
	d := &Dataset{Label: "SST", Snapshots: []*Field{f}}
	if d.GridString() != "512×512×256" {
		t.Fatalf("GridString = %q", d.GridString())
	}
	if d.SizeBytes() != int64(512*512*256*8) {
		t.Fatalf("SizeBytes = %d", d.SizeBytes())
	}
}
