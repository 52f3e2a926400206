package sickle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Table1Row summarizes one dataset like the paper's Table 1.
type Table1Row struct {
	Label, Grid   string
	Time          int
	SizeMB        float64
	KCV           string
	Input, Output string
}

// Table1 builds every dataset analogue and reports its summary row.
func Table1(scale Scale) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range DatasetNames() {
		d, err := BuildDataset(name, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Label: d.Label, Grid: d.GridString(), Time: d.NTime(),
			SizeMB: float64(d.SizeBytes()) / 1e6,
			KCV:    d.ClusterVar,
			Input:  strings.Join(d.InputVars, ","),
			Output: strings.Join(d.OutputVars, ","),
		})
	}
	return rows, nil
}

// FormatTable1 renders rows as a paper-style text table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %6s %10s %-10s %-16s %-8s\n",
		"Label", "Space", "Time", "Size(MB)", "KCV", "Input", "Output")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-14s %6d %10.1f %-10s %-16s %-8s\n",
			r.Label, r.Grid, r.Time, r.SizeMB, r.KCV, r.Input, r.Output)
	}
	return b.String()
}

// snapshotData builds the sampling view of one snapshot.
func snapshotData(d *grid.Dataset, snap int) *sampling.Data {
	f := d.Snapshots[snap]
	feats := f.Points(d.InputVars, nil)
	var kcv []float64
	if d.ClusterVar != "" {
		kcv = append([]float64(nil), f.Var(d.ClusterVar)...)
	}
	return &sampling.Data{Features: feats, ClusterVar: kcv}
}

// Fig3Result holds one sampling method's visualization + summary on OF2D.
type Fig3Result struct {
	Method     string
	NumSamples int
	WakeFrac   float64 // fraction of samples landing in the wake region
	TailCover  float64 // vorticity tail coverage vs full field
	Indices    []int
}

// Fig3 reproduces the OF2D sampling visualization (Figs. 1 and 3): sample
// the final snapshot at `rate` with each method and measure how well each
// captures the wake. The caller can render Indices via the viz package.
func Fig3(scale Scale, rate float64) ([]Fig3Result, *grid.Field, error) {
	d, err := BuildDataset("OF2D", scale)
	if err != nil {
		return nil, nil, err
	}
	snap := d.NTime() - 1
	f := d.Snapshots[snap]
	data := snapshotData(d, snap)
	n := int(rate * float64(data.N()))
	wz := f.Var("wz")

	// The wake: downstream of the cylinder with significant |vorticity|.
	mag := make([]float64, len(wz))
	for i, w := range wz {
		mag[i] = math.Abs(w)
	}
	thr := stats.Quantile(mag, 0.9)
	wakeCells := 0
	for i, w := range wz {
		ci, _, _ := f.Coords(i)
		if ci > 30 && math.Abs(w) > thr {
			wakeCells++
		}
	}

	var out []Fig3Result
	for _, method := range []string{"full", "random", "uips", "maxent"} {
		s, err := sampling.NewPointSampler(method, 10, nil)
		if err != nil {
			return nil, nil, err
		}
		nn := n
		if method == "full" {
			nn = data.N()
		}
		idx := s.SelectPoints(data, nn, rand.New(rand.NewSource(42)))
		inWake := 0
		sampleWz := make([]float64, len(idx))
		for r, i := range idx {
			sampleWz[r] = wz[i]
			ci, _, _ := f.Coords(i)
			if ci > 30 && math.Abs(wz[i]) > thr {
				inWake++
			}
		}
		out = append(out, Fig3Result{
			Method: method, NumSamples: len(idx),
			WakeFrac:  float64(inWake) / float64(len(idx)),
			TailCover: stats.TailCoverage(wz, sampleWz, 0.05),
			Indices:   idx,
		})
	}
	return out, f, nil
}

// Fig4Result reports UIPS phase-space coverage on one dataset.
type Fig4Result struct {
	Dataset string
	// Coverage is the fraction of the full data's occupied phase-space
	// cells that the UIPS sample reaches, normalized by the best any
	// sample of that size could do. 1.0 = uniform coverage of the
	// feature space; low values = the clumping of the paper's Fig. 4.
	Coverage float64
}

// Fig4 reproduces the UIPS clumping comparison: UIPS covers the 2-D TC2D
// phase space nearly uniformly but clumps on the 3-D anisotropic SST-P1F4
// case, reaching only a fraction of the occupied cells.
func Fig4(scale Scale) ([]Fig4Result, error) {
	var out []Fig4Result
	for _, name := range []string{"TC2D", "SST-P1F4"} {
		d, err := BuildDataset(name, scale)
		if err != nil {
			return nil, err
		}
		data := snapshotData(d, d.NTime()-1)
		n := data.N() / 10
		idx := sampling.UIPS{Bins: 20}.SelectPoints(data, n, rand.New(rand.NewSource(1)))

		// Bin the normalized full feature space once; count occupied cells
		// for the full data and for the sample on the same grid.
		pts := make([][]float64, data.N())
		for i := range pts {
			pts[i] = append([]float64(nil), data.Features[i]...)
		}
		stats.NormalizeColumns(pts)
		full := stats.NDHistogramFromPoints(pts, 10)
		lo := make([]float64, len(pts[0]))
		hi := make([]float64, len(pts[0]))
		for j := range hi {
			hi[j] = 1 + 1e-9
		}
		smp := stats.NewNDHistogram(lo, hi, 10)
		for _, i := range idx {
			smp.Add(pts[i])
		}
		denom := full.OccupiedCells()
		if n < denom {
			denom = n
		}
		out = append(out, Fig4Result{
			Dataset:  name,
			Coverage: float64(smp.OccupiedCells()) / float64(denom),
		})
	}
	return out, nil
}

// Fig5Row reports PDF fidelity of one sampling method on one dataset.
type Fig5Row struct {
	Dataset   string
	Method    string
	KLtoFull  float64 // KL(full ‖ sample) on the first input variable
	TailCover float64
}

// Fig5 reproduces the PDF comparison (10% sampling): for each dataset and
// method, compare the sampled PDF of the cluster variable (the KCV of
// Table 1 — vorticity, potential vorticity, enstrophy) to the full-field
// PDF. Sampling operates on a 1-D phase space of the KCV itself, which is
// the variable whose tails carry the dynamics the paper's Fig. 5 examines.
func Fig5(scale Scale) ([]Fig5Row, error) {
	var out []Fig5Row
	for _, name := range []string{"OF2D", "SST-P1F4", "GESTS-2048"} {
		d, err := BuildDataset(name, scale)
		if err != nil {
			return nil, err
		}
		f := d.Snapshots[d.NTime()-1]
		kcv := f.Var(d.ClusterVar)
		full := append([]float64(nil), kcv...)
		data := &sampling.Data{Features: cluster.Scalar1D(full), ClusterVar: full}
		lo, hi := slices.Min(full), slices.Max(full)
		fullHist := stats.NewHistogram(lo, hi+1e-12, 100) // paper: 100 bins
		fullHist.AddAll(full)
		n := data.N() / 10
		for _, method := range []string{"random", "uips", "maxent"} {
			s, err := sampling.NewPointSampler(method, 20, nil)
			if err != nil {
				return nil, err
			}
			idx := s.SelectPoints(data, n, rand.New(rand.NewSource(2)))
			vals := make([]float64, len(idx))
			for r, i := range idx {
				vals[r] = full[i]
			}
			sh := stats.NewHistogram(lo, hi+1e-12, 100)
			sh.AddAll(vals)
			out = append(out, Fig5Row{
				Dataset: name, Method: method,
				KLtoFull:  stats.KLDivergence(fullHist.PDF(), sh.PDF()),
				TailCover: stats.TailCoverage(full, vals, 0.02),
			})
		}
	}
	return out, nil
}

// Fig7Row is one point of the scalability study.
type Fig7Row struct {
	Dataset    string
	Ranks      int
	Speedup    float64
	Efficiency float64
}

// Fig7 reproduces the MaxEnt parallel-scalability study. Per-rank compute
// time comes from a real serial measurement of the two-phase pipeline; the
// scaling model combines the measured compute, the integer work partition
// (ceil(cubes/ranks) — the "dataset too thinly distributed" knee), and the
// minimpi communication cost model (log₂-tree collectives). SST-P1F100 has
// many more cubes than SST-P1F4, so it scales much further before the knee.
func Fig7(ctx context.Context, scale Scale, maxRanks int, cost minimpi.CostModel) ([]Fig7Row, error) {
	cases, err := fig7Measure(ctx, scale)
	return fig7Model(cases, maxRanks, cost), err
}

// fig7Case is one Fig. 7 dataset and its serial measurement: t1 seconds of
// the two-phase pipeline over units work units in nt snapshots.
type fig7Case struct {
	name                string
	cubeEdge, units, nt int
	t1                  float64
}

// fig7Measure times the serial pipeline once; fig7Model extrapolates it.
func fig7Measure(ctx context.Context, scale Scale) ([]fig7Case, error) {
	cases := []fig7Case{{name: "SST-P1F4", cubeEdge: 16}, {name: "SST-P1F100", cubeEdge: 8}}
	for i := range cases {
		cd := &cases[i]
		d, err := BuildDataset(cd.name, scale)
		if err != nil {
			return nil, err
		}
		// Total work units = cubes per snapshot × snapshots (ranks
		// partition the tiled domain).
		cubes := grid.Tile(d.Snapshots[0], cd.cubeEdge, cd.cubeEdge, cd.cubeEdge)
		cd.units, cd.nt = len(cubes)*d.NTime(), d.NTime()
		cfg := sampling.PipelineConfig{
			Hypercubes: "maxent", Method: "maxent",
			CubeSx: cd.cubeEdge, CubeSy: cd.cubeEdge, CubeSz: cd.cubeEdge,
			NumClusters: 5, Seed: 3,
			NumHypercubes: len(cubes), // NumSamples stays at the 10% default
		}
		t0 := time.Now()
		if _, err := sampling.SubsampleDataset(ctx, d, cfg); err != nil {
			return nil, err
		}
		cd.t1 = time.Since(t0).Seconds()
	}
	return cases, nil
}

func fig7Model(cases []fig7Case, maxRanks int, cost minimpi.CostModel) []Fig7Row {
	var out []Fig7Row
	for _, cd := range cases {
		// Bytes exchanged per collective: the gathered per-rank summary.
		const collectiveBytes = 4096
		for ranks := 1; ranks <= maxRanks; ranks *= 2 {
			maxUnits := (cd.units + ranks - 1) / ranks
			tComp := cd.t1 * float64(maxUnits) / float64(cd.units)
			tComm := cost.Cost(collectiveBytes, ranks) * float64(cd.nt)
			sp := cd.t1 / (tComp + tComm)
			out = append(out, Fig7Row{
				Dataset: cd.name, Ranks: ranks,
				Speedup: sp, Efficiency: sp / float64(ranks),
			})
		}
	}
	return out
}

// DefaultCostModel is the interconnect model used for Fig. 7: 20 µs
// collective latency (a Slingshot-class MPI collective at modest scale)
// and 10 GB/s effective bandwidth.
func DefaultCostModel() minimpi.CostModel {
	return minimpi.CostModel{Latency: 20e-6, Bandwidth: 10e9}
}

// KneeRanks returns the rank count after which efficiency first drops
// below the threshold — the paper's "scaling limit (knee point)".
func KneeRanks(rows []Fig7Row, dataset string, threshold float64) int {
	knee := 1
	for _, r := range rows {
		if r.Dataset != dataset {
			continue
		}
		if r.Efficiency >= threshold {
			knee = r.Ranks
		}
	}
	return knee
}

// EnergyReportString formats an energy.Report like the artifact's logs.
func EnergyReportString(r energy.Report) string {
	return fmt.Sprintf("%-22s loss=%.4f  sample=%.3g kJ  train=%.3g kJ  total=%.3g kJ",
		r.Label, r.EvalLoss, r.SampleJoules/1000, r.TrainJoules/1000, r.TotalKJ())
}
