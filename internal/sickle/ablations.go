package sickle

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// AblationRow is one point of a design-choice sweep.
type AblationRow struct {
	Param     string
	Value     float64
	TailCover float64
	KLtoFull  float64
}

// AblateClusterCount sweeps MaxEnt's cluster count (the paper's
// num_clusters, 5-20 across configs) on the SST-P1F4 KCV and reports tail
// coverage: too few clusters cannot isolate the tails, too many fragment
// them.
func AblateClusterCount(scale Scale, counts []int) ([]AblationRow, error) {
	if len(counts) == 0 {
		counts = []int{2, 5, 10, 20, 40}
	}
	d, err := BuildDataset("SST-P1F4", scale)
	if err != nil {
		return nil, err
	}
	full, data := kcvView(d)
	n := len(full) / 10
	var out []AblationRow
	for _, k := range counts {
		idx := sampling.MaxEnt{NumClusters: k}.SelectPoints(data, n, rand.New(rand.NewSource(1)))
		out = append(out, AblationRow{
			Param: "num_clusters", Value: float64(k),
			TailCover: tailOf(full, idx), KLtoFull: klOf(full, idx),
		})
	}
	return out, nil
}

// AblateUIPSBins sweeps the UIPS histogram resolution: with too few bins
// the PDF estimate is too coarse to flatten; with too many, cells become
// singletons and the weights saturate (the paper's Fig. 4 failure mode).
func AblateUIPSBins(scale Scale, bins []int) ([]AblationRow, error) {
	if len(bins) == 0 {
		bins = []int{4, 10, 20, 50, 100}
	}
	d, err := BuildDataset("SST-P1F4", scale)
	if err != nil {
		return nil, err
	}
	full, data := kcvView(d)
	n := len(full) / 10
	var out []AblationRow
	for _, b := range bins {
		idx := sampling.UIPS{Bins: b}.SelectPoints(data, n, rand.New(rand.NewSource(2)))
		out = append(out, AblationRow{
			Param: "uips_bins", Value: float64(b),
			TailCover: tailOf(full, idx), KLtoFull: klOf(full, idx),
		})
	}
	return out, nil
}

// AblateCubeSize sweeps the hypercube edge (the paper fixed 32³ as the
// largest tractable for the quadratic attention): smaller cubes mean more,
// cheaper units of parallel work but less spatial context per sample.
// Reported value is the number of cubes the domain tiles into.
func AblateCubeSize(scale Scale, edges []int) ([]AblationRow, error) {
	if len(edges) == 0 {
		edges = []int{4, 8, 16, 32}
	}
	d, err := BuildDataset("SST-P1F4", scale)
	if err != nil {
		return nil, err
	}
	f := d.Snapshots[0]
	var out []AblationRow
	for _, e := range edges {
		if e > f.Nz {
			continue
		}
		cubes := grid.Tile(f, e, e, e)
		out = append(out, AblationRow{
			Param: "cube_edge", Value: float64(e),
			TailCover: float64(len(cubes)), // work units, not a tail metric
		})
	}
	return out, nil
}

// AblateCommLatency sweeps the interconnect latency in the Fig. 7 model
// and reports the knee rank of the large dataset: slower networks move the
// knee to fewer ranks.
func AblateCommLatency(ctx context.Context, scale Scale, latencies []float64) ([]AblationRow, error) {
	if len(latencies) == 0 {
		latencies = []float64{2e-6, 20e-6, 200e-6}
	}
	var out []AblationRow
	for _, lat := range latencies {
		rows, err := Fig7(ctx, scale, 512, minimpi.CostModel{Latency: lat, Bandwidth: 10e9})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Param: "latency_s", Value: lat,
			TailCover: float64(KneeRanks(rows, "SST-P1F100", 0.5)),
		})
	}
	return out, nil
}

// TemporalSelectionSummary applies §4.3 temporal sampling to the periodic
// OF2D trajectory and returns (kept, total): periodic shedding phases are
// heavily deduplicated.
func TemporalSelectionSummary(scale Scale, threshold float64) (kept, total int, err error) {
	d, err := BuildDataset("OF2D", scale)
	if err != nil {
		return 0, 0, err
	}
	sel := sampling.SelectSnapshots(d, sampling.TemporalConfig{Var: "wz", Threshold: threshold})
	return len(sel), d.NTime(), nil
}

func kcvView(d *grid.Dataset) ([]float64, *sampling.Data) {
	f := d.Snapshots[d.NTime()-1]
	full := append([]float64(nil), f.Var(d.ClusterVar)...)
	return full, &sampling.Data{Features: cluster.Scalar1D(full), ClusterVar: full}
}

func tailOf(full []float64, idx []int) float64 {
	vals := make([]float64, len(idx))
	for r, i := range idx {
		vals[r] = full[i]
	}
	return stats.TailCoverage(full, vals, 0.02)
}

func klOf(full []float64, idx []int) float64 {
	lo, hi := slices.Min(full), slices.Max(full)
	fh := stats.NewHistogram(lo, hi+1e-12, 100)
	fh.AddAll(full)
	sh := stats.NewHistogram(lo, hi+1e-12, 100)
	for _, i := range idx {
		sh.Add(full[i])
	}
	return stats.KLDivergence(fh.PDF(), sh.PDF())
}
