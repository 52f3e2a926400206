package sampling

import (
	"repro/internal/grid"
	"repro/internal/stats"
)

// TemporalConfig controls snapshot-level selection (§4.3): snapshots whose
// input PDF adds no new information relative to the already-kept set are
// discarded — the cure for periodic trajectories (e.g. OF2D vortex
// shedding) oversampling the same phase.
type TemporalConfig struct {
	Var       string  // variable whose PDF measures novelty
	Threshold float64 // minimum JS divergence to keep a snapshot, default 0.01
}

// temporalBins is the histogram resolution of a snapshot's PDF: the
// paper's setting.
const temporalBins = 100

// SelectSnapshots returns the indices of snapshots to keep. The first
// snapshot is always kept; each subsequent snapshot is scored by the
// Jensen-Shannon divergence between its PDF and the PDF of the nearest
// kept snapshot (the smallest divergence over the kept set), and retained
// only if that reaches the threshold.
func SelectSnapshots(d *grid.Dataset, cfg TemporalConfig) []int {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.01
	}
	if cfg.Var == "" {
		cfg.Var = d.InputVars[0]
	}
	if len(d.Snapshots) == 0 {
		return nil
	}

	// Common support across all snapshots so PDFs are comparable.
	lo, hi := d.Snapshots[0].Var(cfg.Var)[0], d.Snapshots[0].Var(cfg.Var)[0]
	for _, f := range d.Snapshots {
		for _, x := range f.Var(cfg.Var) {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}

	pdf := func(f *grid.Field) []float64 {
		h := stats.NewHistogram(lo, hi+1e-9, temporalBins)
		h.AddAll(f.Var(cfg.Var))
		return h.PDF()
	}

	// Novelty is the distance to the NEAREST kept snapshot, not to a
	// running mean: for periodic trajectories every repeat of a phase is
	// close to some kept snapshot even though it is far from the mean, so
	// min-distance is what actually discards the repeats.
	kept := []int{0}
	keptPDFs := [][]float64{pdf(d.Snapshots[0])}
	for t := 1; t < len(d.Snapshots); t++ {
		p := pdf(d.Snapshots[t])
		minJS := stats.JensenShannon(p, keptPDFs[0])
		for _, q := range keptPDFs[1:] {
			if js := stats.JensenShannon(p, q); js < minJS {
				minJS = js
			}
		}
		if minJS >= cfg.Threshold {
			kept = append(kept, t)
			keptPDFs = append(keptPDFs, p)
		}
	}
	return kept
}
