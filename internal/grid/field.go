// Package grid provides the structured-field data model for SICKLE-Go:
// multi-variable 2-D/3-D snapshots on uniform grids, hypercube (sub-block)
// extraction, and the derived turbulence quantities the paper's Table 1 uses
// as cluster variables (vorticity, enstrophy, dissipation rate, potential
// vorticity).
//
// Storage is x-fastest row-major: index = (k*Ny + j)*Nx + i.
package grid

import "fmt"

// Field is one simulation snapshot: a set of named scalar variables on a
// uniform Nx×Ny×Nz grid (Nz = 1 for 2-D data).
type Field struct {
	Nx, Ny, Nz int
	Dx, Dy, Dz float64
	Time       float64
	Vars       map[string][]float64
}

// NewField allocates an empty field with the given dimensions and unit
// spacing.
func NewField(nx, ny, nz int) *Field {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %d×%d×%d", nx, ny, nz))
	}
	return &Field{Nx: nx, Ny: ny, Nz: nz, Dx: 1, Dy: 1, Dz: 1, Vars: map[string][]float64{}}
}

// NPoints returns the number of grid points.
func (f *Field) NPoints() int { return f.Nx * f.Ny * f.Nz }

// Is2D reports whether the field is planar.
func (f *Field) Is2D() bool { return f.Nz == 1 }

// Idx returns the flat index of (i, j, k).
func (f *Field) Idx(i, j, k int) int { return (k*f.Ny+j)*f.Nx + i }

// Coords returns the (i, j, k) coordinates of flat index idx.
func (f *Field) Coords(idx int) (i, j, k int) {
	i = idx % f.Nx
	j = (idx / f.Nx) % f.Ny
	k = idx / (f.Nx * f.Ny)
	return
}

// AddVar registers (or replaces) a variable, allocating storage if data is
// nil. The returned slice is the live backing array.
func (f *Field) AddVar(name string, data []float64) []float64 {
	n := f.NPoints()
	if data == nil {
		data = make([]float64, n)
	}
	if len(data) != n {
		panic(fmt.Sprintf("grid: variable %q has %d values, grid has %d points", name, len(data), n))
	}
	f.Vars[name] = data
	return data
}

// Var returns the named variable, panicking if absent. Use HasVar to probe.
func (f *Field) Var(name string) []float64 {
	v, ok := f.Vars[name]
	if !ok {
		panic(fmt.Sprintf("grid: unknown variable %q (have %v)", name, f.VarNames()))
	}
	return v
}

// HasVar reports whether the variable exists.
func (f *Field) HasVar(name string) bool {
	_, ok := f.Vars[name]
	return ok
}

// VarNames returns the variable names in deterministic (sorted) order.
func (f *Field) VarNames() []string {
	names := make([]string, 0, len(f.Vars))
	for n := range f.Vars {
		names = append(names, n)
	}
	// insertion sort: tiny n, avoids importing sort for one call site
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// SizeBytes returns the in-memory footprint of the field's variables,
// assuming float64 storage. Used for Table 1 size reporting.
func (f *Field) SizeBytes() int64 {
	return int64(len(f.Vars)) * int64(f.NPoints()) * 8
}

// Points returns an n×d matrix of the given variables at the given flat
// indices (all points when indices is nil).
func (f *Field) Points(vars []string, indices []int) [][]float64 {
	cols := make([][]float64, len(vars))
	for i, name := range vars {
		cols[i] = f.Var(name)
	}
	n := f.NPoints()
	if indices != nil {
		n = len(indices)
	}
	backing := make([]float64, n*len(vars))
	pts := make([][]float64, n)
	for r := 0; r < n; r++ {
		idx := r
		if indices != nil {
			idx = indices[r]
		}
		row := backing[r*len(vars) : (r+1)*len(vars)]
		for c := range cols {
			row[c] = cols[c][idx]
		}
		pts[r] = row
	}
	return pts
}

// wrap implements periodic boundary indexing.
func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// ddx, ddy, ddz are second-order central differences with periodic wrap.
func (f *Field) ddx(v []float64, i, j, k int) float64 {
	return (v[f.Idx(wrap(i+1, f.Nx), j, k)] - v[f.Idx(wrap(i-1, f.Nx), j, k)]) / (2 * f.Dx)
}

func (f *Field) ddy(v []float64, i, j, k int) float64 {
	return (v[f.Idx(i, wrap(j+1, f.Ny), k)] - v[f.Idx(i, wrap(j-1, f.Ny), k)]) / (2 * f.Dy)
}

func (f *Field) ddz(v []float64, i, j, k int) float64 {
	if f.Nz == 1 {
		return 0
	}
	return (v[f.Idx(i, j, wrap(k+1, f.Nz))] - v[f.Idx(i, j, wrap(k-1, f.Nz))]) / (2 * f.Dz)
}

// ComputeVorticityZ computes the z-component of vorticity ω_z = ∂v/∂x −
// ∂u/∂y and stores it under "wz". This is the KCV for the OF2D case.
func (f *Field) ComputeVorticityZ() []float64 {
	u, v := f.Var("u"), f.Var("v")
	wz := f.AddVar("wz", nil)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				wz[f.Idx(i, j, k)] = f.ddx(v, i, j, k) - f.ddy(u, i, j, k)
			}
		}
	}
	return wz
}

// ComputeEnstrophy computes Ω = ½|ω|² from u, v, w and stores it under
// "enstrophy". This is the KCV for the GESTS cases (Table 1).
func (f *Field) ComputeEnstrophy() []float64 {
	u, v, w := f.Var("u"), f.Var("v"), f.Var("w")
	ens := f.AddVar("enstrophy", nil)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				wx := f.ddy(w, i, j, k) - f.ddz(v, i, j, k)
				wy := f.ddz(u, i, j, k) - f.ddx(w, i, j, k)
				wzv := f.ddx(v, i, j, k) - f.ddy(u, i, j, k)
				ens[f.Idx(i, j, k)] = 0.5 * (wx*wx + wy*wy + wzv*wzv)
			}
		}
	}
	return ens
}

// ComputeDissipation computes the (pseudo-)dissipation rate ε = 2ν S_ij S_ij
// from the velocity gradients and stores it under "dissipation".
func (f *Field) ComputeDissipation(nu float64) []float64 {
	u, v, w := f.Var("u"), f.Var("v"), f.Var("w")
	eps := f.AddVar("dissipation", nil)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				ux, uy, uz := f.ddx(u, i, j, k), f.ddy(u, i, j, k), f.ddz(u, i, j, k)
				vx, vy, vz := f.ddx(v, i, j, k), f.ddy(v, i, j, k), f.ddz(v, i, j, k)
				wx, wy, wz := f.ddx(w, i, j, k), f.ddy(w, i, j, k), f.ddz(w, i, j, k)
				sxx, syy, szz := ux, vy, wz
				sxy := 0.5 * (uy + vx)
				sxz := 0.5 * (uz + wx)
				syz := 0.5 * (vz + wy)
				ss := sxx*sxx + syy*syy + szz*szz + 2*(sxy*sxy+sxz*sxz+syz*syz)
				eps[f.Idx(i, j, k)] = 2 * nu * ss
			}
		}
	}
	return eps
}

// ComputePotentialVorticity computes q = ω · ∇ρ (the Ertel potential
// vorticity for a Boussinesq flow with buoyancy variable ρ) and stores it
// under "pv". This is the KCV for the SST cases.
func (f *Field) ComputePotentialVorticity() []float64 {
	u, v, w := f.Var("u"), f.Var("v"), f.Var("w")
	rho := f.Var("r")
	pv := f.AddVar("pv", nil)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				wx := f.ddy(w, i, j, k) - f.ddz(v, i, j, k)
				wy := f.ddz(u, i, j, k) - f.ddx(w, i, j, k)
				wzv := f.ddx(v, i, j, k) - f.ddy(u, i, j, k)
				rx, ry, rz := f.ddx(rho, i, j, k), f.ddy(rho, i, j, k), f.ddz(rho, i, j, k)
				pv[f.Idx(i, j, k)] = wx*rx + wy*ry + wzv*rz
			}
		}
	}
	return pv
}
