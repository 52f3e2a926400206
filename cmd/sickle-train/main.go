// sickle-train is the T2 stage of the paper's workflow (the artifact's
// `srun --ntasks-per-node=8 python train.py case.yaml`) as one sickle.Loop:
// it loads a subsample file (or re-runs T1), optionally tunes the
// hyperparameters (-tune), trains the requested architecture with
// data-parallel ranks, and prints the "Evaluation on test set" loss and
// total energy.
//
// Usage:
//
//	sickle-train -dataset SST-P1F4 -arch MLP_Transformer -epochs 20 -n 2
//	sickle-train -in sub.skl -dataset SST-P1F4 -arch MLP_Transformer
//	sickle-train -dataset SST-P1F4 -arch LSTM -ckpt-out model.sknn   # then serve it
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/energy"
	"repro/internal/nn"
	olog "repro/internal/obs/log"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/tier"
	"repro/internal/train"
)

func main() {
	dataset := flag.String("dataset", "SST-P1F4", "dataset name")
	arch := flag.String("arch", "MLP_Transformer", "LSTM | MLP_Transformer | CNN_Transformer | MATEY")
	in := flag.String("in", "", "subsample file from sickle-subsample (optional)")
	method := flag.String("method", "maxent", "sampler when -in is not given")
	epochs := flag.Int("epochs", 20, "training epochs")
	batch := flag.Int("batch", 8, "batch size")
	window := flag.Int("window", 1, "input time window")
	ranks := flag.Int("n", 1, "data-parallel ranks")
	seed := flag.Int64("seed", 1, "seed")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale: small|large")
	doTune := flag.Bool("tune", false, "run hyperparameter search first (the paper's --tune / DeepHyper analogue)")
	ckptOut := flag.String("ckpt-out", "", "save the trained model checkpoint here (servable by sickle-serve)")
	newLogger := olog.Flags(flag.CommandLine)
	debugAddr := flag.String("debug-addr", "", "pprof + metrics + traces listen address for the run (\"\" = off)")
	flag.Parse()

	lg := newLogger()
	fatal := func(msg string, err error) {
		lg.Error(msg, "err", err)
		os.Exit(1)
	}

	// The run always records epoch/batch metrics and spans; -debug-addr
	// additionally serves them (plus pprof) live during long fits.
	rec := tier.New(tier.Config{Name: "train", Logger: lg})
	if *debugAddr != "" {
		rec.History().Start()
		defer rec.History().Stop()
		rec.ServeDebug(*debugAddr)
	}

	d, err := sickle.BuildDataset(*dataset, scale)
	if err != nil {
		fatal("build dataset", err)
	}

	loop := sickle.Loop{
		Pipeline: sampling.PipelineConfig{
			Hypercubes: "maxent", Method: *method, NumHypercubes: 2, CubeSx: 16,
			NumClusters: 5, Seed: *seed, Meter: energy.NewMeter(),
		},
		Arch:   train.ArchSpec{Arch: strings.ToLower(*arch), Hidden: 16, Heads: 2},
		Window: *window,
		Train: train.Config{
			LR:     0.001,
			Epochs: *epochs, Batch: *batch, Seed: *seed, Ranks: *ranks,
			Normalize: true, Meter: energy.NewMeter(), Verbose: true,
			CostModel: sickle.DefaultCostModel(),
			Metrics:   rec.MetricsRegistry(), Tracer: rec.Tracer(),
		},
	}
	if loop.Arch.Arch == "cnn_transformer" {
		loop.Pipeline.Method = "full"
	}
	if f := d.Snapshots[0]; f.Is2D() {
		// 2-D cases sample the whole plane (the OF2D workflow).
		loop.Pipeline.CubeSx, loop.Pipeline.CubeSy, loop.Pipeline.CubeSz = f.Nx, f.Ny, 1
		loop.Pipeline.NumHypercubes = 1
	}

	ctx := context.Background()
	var cubes []sampling.CubeSample
	if *in != "" {
		cubes, err = sickle.LoadCubeSamples(*in)
	} else {
		cubes, err = loop.Subsample(ctx, d)
	}
	if err != nil {
		fatal("subsample", err)
	}
	if *doTune {
		var trials []sickle.Trial
		loop, trials, err = loop.Tune(ctx, d, cubes)
		if err != nil {
			fatal("hyperparameter search", err)
		}
		fmt.Println("tuning winner:", trials[0])
	}
	res, err := loop.Fit(ctx, d, cubes)
	if err != nil {
		fatal("train", err)
	}
	hist := res.History

	if *ckptOut != "" {
		if err := nn.SaveCheckpoint(*ckptOut, res.Model); err != nil {
			fatal("save checkpoint", err)
		}
		// The sized spec is the recipe a serving process needs to rebuild
		// checkpoint-compatible replicas.
		specJSON, _ := json.Marshal(res.Spec)
		fmt.Printf("wrote checkpoint %s (arch spec: %s, input shape %v)\n",
			*ckptOut, specJSON, res.Examples[0].Input.Shape)
	}
	fmt.Printf("model: %s (%d parameters), %d examples, %d ranks\n",
		res.Model.Name(), hist.Params, len(res.Examples), *ranks)
	fmt.Printf("Evaluation on test set: %.6f\n", hist.FinalLoss)
	fmt.Printf("observability: trace %s (%d epoch spans recorded)\n",
		hist.TraceID, hist.Epochs)
	meterSample, meterTrain := loop.Pipeline.Meter, loop.Train.Meter
	fmt.Printf("sampling  %s\n", meterSample.String())
	fmt.Printf("training  %s\n", meterTrain.String())
	meterSample.Add(meterTrain)
	fmt.Printf("combined  %s\n", meterSample.String())
}
