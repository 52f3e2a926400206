// Cylinder-drag: the paper's Fig. 6 workflow in miniature. A lattice-
// Boltzmann cylinder flow generates velocity snapshots and a drag signal;
// SICKLE subsamples each snapshot with random vs MaxEnt sampling; an LSTM
// surrogate is trained to predict drag from the sampled points; and the
// test losses of both samplers are compared across replicates.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/cfd2d"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stats"
	"repro/internal/train"
)

func main() {
	fmt.Println("running lattice-Boltzmann cylinder flow (OF2D analogue)...")
	d := cfd2d.OF2DDataset(cfd2d.Config{
		Nx: 160, Ny: 64, U0: 0.1, Reynolds: 150, D: 12, Cx: 32, Cy: 32,
	}, 2500, 60, 120)
	fmt.Printf("dataset: %s grid, %d snapshots, drag range [%.3f, %.3f]\n",
		d.GridString(), d.NTime(), minOf(d.GlobalTargets), maxOf(d.GlobalTargets))

	for _, method := range []string{"random", "maxent"} {
		var losses []float64
		for rep := 0; rep < 3; rep++ {
			res, err := sickle.Loop{
				Pipeline: sampling.PipelineConfig{
					Hypercubes: "random", Method: method,
					NumHypercubes: 1 << 20, NumSamples: 400,
					CubeSx: 160, CubeSy: 64, CubeSz: 1,
					NumClusters: 10, Seed: int64(100 + rep),
				},
				Arch:   train.ArchSpec{Arch: "lstm"},
				Window: 3,
				Train:  train.Config{Epochs: 120, Batch: 8, Seed: int64(rep), Normalize: true},
			}.Run(context.Background(), d)
			if err != nil {
				log.Fatal(err)
			}
			losses = append(losses, res.Report.EvalLoss)
		}
		m := stats.ComputeMoments(losses)
		fmt.Printf("%-8s test loss = %.5f ± %.5f over 3 replicates\n",
			method, m.Mean, math.Sqrt(m.Variance))
	}
	fmt.Println("\nThe paper's Fig. 6 found MaxEnt more reproducible and often more")
	fmt.Println("accurate for the drag objective — but also that \"random sampling")
	fmt.Println("performs quite well in many scenarios\" (§7). At this miniature")
	fmt.Println("scale the ordering is seed-sensitive; run the full sweep with")
	fmt.Println("`go run ./cmd/sickle-bench -exp fig6` for the 3×3×3 comparison.")
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
