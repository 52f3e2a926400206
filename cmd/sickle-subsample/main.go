// sickle-subsample is the T1 stage of the paper's workflow (the artifact's
// `srun -n 32 python subsample.py case.yaml`): it builds or selects a
// dataset, runs the two-phase sampling pipeline across minimpi ranks (the
// streaming pipeline replaying the dataset in offline-parity mode), and
// writes the feature-rich subsample to a compact binary file, reporting
// energy and storage reduction.
//
// Usage:
//
//	sickle-subsample -case case.yaml -dataset SST-P1F4 -n 8 -o sub.skl
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sickle"
	"repro/internal/stream"
)

func main() {
	caseFile := flag.String("case", "", "YAML case file whose subsample section sets the pipeline (-hypercubes and -method override it)")
	dataset := flag.String("dataset", "SST-P1F4", "dataset name (see sickle.DatasetNames)")
	ranks := flag.Int("n", 1, "minimpi ranks")
	out := flag.String("o", "subsample.skl", "output subsample file")
	hsel := flag.String("hypercubes", "", "phase-1 selector: random|maxent")
	method := flag.String("method", "", "phase-2 sampler: full|random|uniform|lhs|stratified|uips|maxent")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale: small|large")
	flag.Parse()

	pcfg, err := config.LoadPipeline(*caseFile)
	if err != nil {
		log.Fatal(err)
	}
	if *hsel != "" {
		pcfg.Hypercubes = *hsel
	}
	if *method != "" {
		pcfg.Method = *method
	}
	meter := energy.NewMeter()
	pcfg.Meter = meter

	d, err := sickle.BuildDataset(*dataset, scale)
	if err != nil {
		log.Fatal(err)
	}
	// The ranked T1 driver is the streaming pipeline replaying the dataset:
	// with no reservoir budget it returns the offline selection bit for bit,
	// cube geometry fitted to the first snapshot.
	t0 := time.Now()
	res, err := stream.Run(context.Background(), stream.NewReplaySource(d), stream.Config{
		Pipeline: pcfg, Ranks: *ranks, Cost: sickle.DefaultCostModel(),
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)
	cubes, fitted := res.Cubes, res.Pipeline

	if err := sickle.SaveCubeSamples(*out, cubes); err != nil {
		log.Fatal(err)
	}
	ratio, err := sickle.StorageReduction(d, *out)
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	for _, cs := range cubes {
		total += len(cs.LocalIdx)
	}
	fmt.Printf("dataset: %s (%s, %d snapshots)\n", d.Label, d.GridString(), d.NTime())
	fmt.Printf("pipeline: H%s-X%s, %d cubes of %d³ kept, %d samples/cube\n",
		fitted.Hypercubes, fitted.Method, len(res.Kept), fitted.CubeSx, total/max(len(cubes), 1))
	fmt.Printf("selected %d cube-samples, %d points total\n", len(cubes), total)
	fmt.Printf("Elapsed Time: %v (sim comm: %.3g s at %d ranks)\n",
		elapsed, res.World.MaxSimCommSeconds(), *ranks)
	fmt.Println(meter.String())
	fmt.Printf("wrote %s (storage reduction %.0fx vs full dataset)\n", *out, ratio)
}
