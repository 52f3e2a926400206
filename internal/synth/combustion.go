package synth

import (
	"math"
	"math/rand"

	"repro/internal/grid"
)

// CombustionConfig controls the TC2D-like turbulent-combustion analogue.
// The defining statistical feature of the NREL TC2D dataset is an extremely
// non-uniform phase-space density: most points sit in burnt/unburnt plateaus
// (C ≈ 0 or 1, variance ≈ 0) while the information-rich flame front is a
// thin wrinkled band — exactly the regime where UIPS shines in 2-D (Fig 4
// left) and where random sampling under-covers the tails (Fig 5).
type CombustionConfig struct {
	Nx, Ny int
	Seed   int64
}

// The flame front's fixed shape. Typed, so expressions over them round as
// float64 arithmetic does.
const (
	frontThickness float64 = 0.02 // in grid fractions
	frontWrinkle   float64 = 0.15 // wrinkling amplitude of the first mode
	frontModes             = 6    // wrinkling modes
)

func (c *CombustionConfig) defaults() {
	if c.Nx == 0 {
		c.Nx = 512
	}
	if c.Ny == 0 {
		c.Ny = 512
	}
}

// Combustion synthesizes a progress-variable field C ∈ [0,1] with a thin
// wrinkled reaction front, and its filtered variance Cvar (peaking inside
// the front). Variables: "C" and "Cvar" (Table 1's 𝐶 and 𝐶″²).
func Combustion(cfg CombustionConfig) *grid.Field {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := grid.NewField(cfg.Nx, cfg.Ny, 1)

	// Wrinkled front position: x_front(y) = 0.5 + Σ a_m sin(2π m y + φ_m).
	var amps, phases [frontModes]float64
	for m := range amps {
		amps[m] = frontWrinkle * rng.NormFloat64() / float64(m+1)
		phases[m] = rng.Float64() * 2 * math.Pi
	}

	c := f.AddVar("C", nil)
	cv := f.AddVar("Cvar", nil)
	for j := 0; j < cfg.Ny; j++ {
		y := float64(j) / float64(cfg.Ny)
		front := 0.5
		for m := range amps {
			front += amps[m] * math.Sin(2*math.Pi*float64(m+1)*y+phases[m])
		}
		for i := 0; i < cfg.Nx; i++ {
			x := float64(i) / float64(cfg.Nx)
			// Progress variable: tanh profile across the front.
			z := (x - front) / frontThickness
			cval := 0.5 * (1 + math.Tanh(z))
			// Filtered variance peaks where the gradient is steepest:
			// sech⁴ profile, maximal at the front center.
			sech := 1 / math.Cosh(z)
			cvar := 0.25 * sech * sech * sech * sech
			idx := f.Idx(i, j, 0)
			c[idx] = cval + 0.01*rng.NormFloat64()*sech
			cv[idx] = cvar * (1 + 0.05*rng.NormFloat64())
			if cv[idx] < 0 {
				cv[idx] = 0
			}
		}
	}
	return f
}

// TC2DDataset builds the single-snapshot TC2D-like dataset (Table 1: KCV
// none, inputs C and Cvar, no output — it is used for sampling studies
// only).
func TC2DDataset(cfg CombustionConfig) *grid.Dataset {
	f := Combustion(cfg)
	return &grid.Dataset{
		Label:       "TC2D",
		Description: "2D turbulent combustion (synthetic analogue)",
		Snapshots:   []*grid.Field{f},
		InputVars:   []string{"C", "Cvar"},
		ClusterVar:  "C",
	}
}
