// Stratified-pipeline: the full T1→T2→T3 workflow of the paper's Fig. 2 on
// a stratified-turbulence trajectory — parallel MaxEnt subsampling, binary
// subsample storage, MLP-Transformer training, and an energy report in the
// style of Fig. 8.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/cfd3d"
	"repro/internal/energy"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stream"
	"repro/internal/train"
)

func main() {
	// T0: evolve a Taylor-Green array under stratification (SST-P1F4-like).
	fmt.Println("evolving Taylor-Green trajectory under stratification...")
	d := cfd3d.EvolveDataset("SST-P1F4-demo", 8, 2, cfd3d.Config{N: 32, Seed: 3, BruntN: 2})
	fmt.Printf("dataset: %s, %d snapshots, %.1f MB\n",
		d.GridString(), d.NTime(), float64(d.SizeBytes())/1e6)

	// T1: two-phase MaxEnt subsampling across 4 minimpi ranks — the streaming
	// pipeline replaying the trajectory, which with no reservoir budget
	// returns the offline selection bit for bit.
	loop := sickle.Loop{
		Pipeline: sampling.PipelineConfig{
			Hypercubes: "maxent", Method: "maxent",
			NumHypercubes: 3, CubeSx: 16,
			NumClusters: 5, Seed: 9, Meter: energy.NewMeter(),
		},
		Arch:  train.ArchSpec{Arch: "mlp_transformer"},
		Train: train.Config{Epochs: 10, Batch: 4, Seed: 10, Normalize: true},
	}
	t1, err := stream.Run(context.Background(), stream.NewReplaySource(d), stream.Config{
		Pipeline: loop.Pipeline, Ranks: 4, Cost: sickle.DefaultCostModel(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T1: %d cube-samples (sim comm %.3g s); %s\n",
		len(t1.Cubes), t1.World.MaxSimCommSeconds(), loop.Pipeline.Meter)

	// Persist the subsample; report the storage reduction.
	path := "sst_subsample.skl"
	if err := sickle.SaveCubeSamples(path, t1.Cubes); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	ratio, _ := sickle.StorageReduction(d, path)
	fmt.Printf("stored %s: %.0fx smaller than the raw trajectory\n", path, ratio)

	// T2 + T3: train the sample-full MLP-Transformer surrogate on the
	// selection, evaluate and report, Fig. 8 style.
	res, err := loop.Fit(context.Background(), d, t1.Cubes)
	if err != nil {
		log.Fatal(err)
	}
	res.Report.Label = "SST-P1F4/Hmaxent-Xmaxent"
	fmt.Printf("T2: trained %d-parameter MLP-Transformer for %d epochs\n", res.History.Params, res.History.Epochs)
	fmt.Println("T3:", sickle.EnergyReportString(res.Report))
}
