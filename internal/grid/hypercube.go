package grid

import "fmt"

// Hypercube identifies a sub-block of a field: origin (I0, J0, K0) and size
// (Sx, Sy, Sz). The paper's workflow partitions each snapshot into 32³
// candidate hypercubes before MaxEnt phase-1 selection.
type Hypercube struct {
	I0, J0, K0 int
	Sx, Sy, Sz int
	ID         int // position in the tiling, stable across runs
}

// NPoints returns the number of grid points in the cube.
func (h Hypercube) NPoints() int { return h.Sx * h.Sy * h.Sz }

// Tile partitions a field into non-overlapping hypercubes of size
// sx×sy×sz, dropping any partial cubes at the domain edges (matching the
// "structured cubes required by neural networks" constraint in §4).
func Tile(f *Field, sx, sy, sz int) []Hypercube {
	if sx <= 0 || sy <= 0 || sz <= 0 {
		panic(fmt.Sprintf("grid: invalid hypercube size %d×%d×%d", sx, sy, sz))
	}
	if f.Is2D() {
		sz = 1
	}
	cubes := make([]Hypercube, 0, (f.Nx/sx)*(f.Ny/sy)*(f.Nz/sz))
	id := 0
	for k := 0; k+sz <= f.Nz; k += sz {
		for j := 0; j+sy <= f.Ny; j += sy {
			for i := 0; i+sx <= f.Nx; i += sx {
				cubes = append(cubes, Hypercube{I0: i, J0: j, K0: k, Sx: sx, Sy: sy, Sz: sz, ID: id})
				id++
			}
		}
	}
	return cubes
}

// Indices returns the flat field indices covered by cube h, in x-fastest
// order.
func (h Hypercube) Indices(f *Field) []int {
	out := make([]int, 0, h.NPoints())
	for k := h.K0; k < h.K0+h.Sz; k++ {
		for j := h.J0; j < h.J0+h.Sy; j++ {
			base := (k*f.Ny+j)*f.Nx + h.I0
			for i := 0; i < h.Sx; i++ {
				out = append(out, base+i)
			}
		}
	}
	return out
}

// VarValues gathers one variable over the cube, in x-fastest order.
func (h Hypercube) VarValues(f *Field, name string) []float64 {
	src := f.Var(name)
	out := make([]float64, 0, h.NPoints())
	for k := h.K0; k < h.K0+h.Sz; k++ {
		for j := h.J0; j < h.J0+h.Sy; j++ {
			base := (k*f.Ny+j)*f.Nx + h.I0
			for i := 0; i < h.Sx; i++ {
				out = append(out, src[base+i])
			}
		}
	}
	return out
}
