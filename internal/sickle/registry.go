// Package sickle is the top-level framework tying SICKLE-Go together: a
// dataset registry covering the paper's Table 1 cases (scaled-down
// synthetic analogues), Loop — the T1→T2→T3 entry point (sample → train →
// evaluate, Fig. 2), the one place the paper's workflow is written out —
// and the experiment drivers that cmd/sickle-bench -exp prints.
package sickle

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cfd2d"
	"repro/internal/cfd3d"
	"repro/internal/grid"
	"repro/internal/synth"
)

// Scale selects dataset sizes. Small keeps unit tests and benches fast;
// Large is closer to (though still far below) the paper's grids and is
// meant for the cmd/sickle-bench CLI.
type Scale int

// Scales.
const (
	Small Scale = iota
	Large
)

// MarshalText names the scale the way -scale and the API spell it.
func (s Scale) MarshalText() ([]byte, error) {
	if s == Large {
		return []byte("large"), nil
	}
	return []byte("small"), nil
}

// UnmarshalText parses "small" (or "") and "large" in any case; anything
// else is an error, so a typo never silently selects the small datasets.
func (s *Scale) UnmarshalText(text []byte) error {
	switch strings.ToLower(string(text)) {
	case "", "small":
		*s = Small
	case "large":
		*s = Large
	default:
		return fmt.Errorf("sickle: unknown scale %q (want small|large)", text)
	}
	return nil
}

// DatasetNames lists the Table 1 cases in paper order.
func DatasetNames() []string {
	return []string{"TC2D", "OF2D", "SST-P1F4", "SST-P1F100", "GESTS-2048", "GESTS-8192"}
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*grid.Dataset{}
)

// BuildDataset constructs (and memoizes) a Table 1 dataset analogue.
func BuildDataset(name string, scale Scale) (*grid.Dataset, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	key := fmt.Sprintf("%s/%d", name, scale)
	if d, ok := cache[key]; ok {
		return d, nil
	}
	d, err := BuildDatasetUncached(name, scale)
	if err != nil {
		return nil, err
	}
	cache[key] = d
	return d, nil
}

// BuildDatasetUncached constructs a fresh dataset without consulting or
// populating the package-level memo. Serving layers that manage their own
// bounded LRU (internal/serve) use this so eviction there actually frees
// the memory instead of leaving a second unbounded copy here.
func BuildDatasetUncached(name string, scale Scale) (*grid.Dataset, error) {
	d, err := buildDataset(name, scale)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sickle: generated dataset %s invalid: %w", name, err)
	}
	return d, nil
}

func buildDataset(name string, scale Scale) (*grid.Dataset, error) {
	big := scale == Large
	pick := func(small, large int) int {
		if big {
			return large
		}
		return small
	}
	switch name {
	case "TC2D":
		return synth.TC2DDataset(synth.CombustionConfig{
			Nx: pick(256, 640), Ny: pick(256, 640), Seed: 7,
		}), nil
	case "OF2D":
		// 100 snapshots in the paper; enough shedding periods to regress
		// drag. The lattice is sized so u,v,p snapshots stay light.
		warm, snaps, per := 2500, pick(80, 160), 120
		return cfd2d.OF2DDataset(cfd2d.Config{
			Nx: pick(180, 300), Ny: pick(60, 120), U0: 0.1,
			Reynolds: 150, D: float64(pick(12, 20)), Cx: 30, Cy: float64(pick(30, 60)),
		}, warm, snaps, per), nil
	case "SST-P1F4":
		// Time-evolving Taylor-Green trajectory (125 snapshots in the
		// paper).
		return cfd3d.EvolveDataset("SST-P1F4", pick(10, 24), pick(2, 4), cfd3d.Config{
			N: pick(32, 64), Seed: 11, BruntN: 2,
		}), nil
	case "SST-P1F100":
		// Forced stratified turbulence, few snapshots, strongly
		// anisotropic, gravity along y (the paper's P1F100 config).
		d := synth.SSTDataset("SST-P1F100", pick(4, 8), synth.StratifiedConfig{
			Nx: pick(64, 128), Ny: pick(32, 64), Nz: pick(64, 128),
			Seed: 13, AnisoFactor: 6, Froude: 0.15, GravityAxis: 1,
		})
		d.InputVars = []string{"rhoy"}
		d.OutputVars = []string{"ee"}
		d.ClusterVar = "rhoy"
		return d, nil
	case "GESTS-2048":
		return synth.GESTSDataset("GESTS-2048", synth.IsotropicConfig{
			N: pick(32, 64), Seed: 17, KPeak: 4,
		}), nil
	case "GESTS-8192":
		return synth.GESTSDataset("GESTS-8192", synth.IsotropicConfig{
			N: pick(64, 128), Seed: 19, KPeak: 6,
		}), nil
	}
	return nil, fmt.Errorf("sickle: unknown dataset %q (have %v)", name, DatasetNames())
}
