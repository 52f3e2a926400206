// Package viz renders fields and sampled point sets for the paper's
// qualitative figures (Figs. 1 and 3): grayscale PGM images of 2-D slices
// and sample-location overlays, plus compact ASCII renderings for terminal
// inspection.
package viz

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/grid"
)

// FieldToPGM renders the z=k slice of a variable as an 8-bit PGM image,
// linearly mapping [min, max] to [0, 255].
func FieldToPGM(f *grid.Field, varName string, k int) []byte {
	v := f.Var(varName)
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P5\n%d %d\n255\n", f.Nx, f.Ny)
	out := []byte(b.String())
	for j := f.Ny - 1; j >= 0; j-- { // PGM top row first; flip to y-up
		for i := 0; i < f.Nx; i++ {
			x := v[f.Idx(i, j, k)]
			out = append(out, byte(255*(x-lo)/(hi-lo)))
		}
	}
	return out
}

// SamplesToPGM renders sample locations (flat indices of the z=k slice) as
// white dots on a dark rendering of the underlying variable.
func SamplesToPGM(f *grid.Field, varName string, k int, indices []int) []byte {
	img := FieldToPGM(f, varName, k)
	// Header ends after the third newline.
	hdr := 0
	for n := 0; n < 3; n++ {
		for img[hdr] != '\n' {
			hdr++
		}
		hdr++
	}
	// Dim the background so samples stand out.
	for p := hdr; p < len(img); p++ {
		img[p] /= 2
	}
	for _, idx := range indices {
		i, j, kk := f.Coords(idx)
		if kk != k {
			continue
		}
		row := f.Ny - 1 - j
		img[hdr+row*f.Nx+i] = 255
	}
	return img
}

// WritePGM writes a PGM image to path.
func WritePGM(path string, img []byte) error {
	return os.WriteFile(path, img, 0o644)
}

// FieldToASCII renders the z=k slice as an ASCII shade map downsampled to
// at most maxCols columns.
func FieldToASCII(f *grid.Field, varName string, k, maxCols int) string {
	shades := []byte(" .:-=+*#%@")
	v := f.Var(varName)
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	step := 1
	if f.Nx > maxCols {
		step = (f.Nx + maxCols - 1) / maxCols
	}
	var b strings.Builder
	for j := f.Ny - 1; j >= 0; j -= 2 * step { // chars are ~2× taller than wide
		for i := 0; i < f.Nx; i += step {
			x := v[f.Idx(i, j, k)]
			s := int(float64(len(shades)-1) * (x - lo) / (hi - lo))
			b.WriteByte(shades[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
