// sickle-train is the T2 stage of the paper's workflow (the artifact's
// `srun --ntasks-per-node=8 python train.py case.yaml`): it loads a
// subsample file (or re-runs T1), builds examples for the requested
// architecture, trains with data-parallel ranks, and prints the
// "Evaluation on test set" loss and total energy.
//
// Usage:
//
//	sickle-train -dataset SST-P1F4 -arch MLP_Transformer -epochs 20 -n 2
//	sickle-train -in sub.skl -dataset SST-P1F4 -arch MLP_Transformer
//	sickle-train -dataset SST-P1F4 -arch LSTM -ckpt-out model.sknn   # then serve it
//
//sicklevet:file-ignore ologonly the training summary is the CLI result, printed once after the run exits
package main

import (
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/tune"
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

	// The stages of sickle.Loop, inline because -tune sits between the
	// example layout and the fit.
	spec := train.ArchSpec{Arch: strings.ToLower(*arch), Hidden: 16, Heads: 2}
	var cubes []sampling.CubeSample
	meterSample := energy.NewMeter()
	if *in != "" {
		cubes, err = sickle.LoadCubeSamples(*in)
	} else {
		pcfg := sampling.PipelineConfig{
			Hypercubes: "maxent", Method: *method, NumHypercubes: 2, CubeSx: 16,
			NumClusters: 5, Seed: *seed, Meter: meterSample,
		}
		if spec.Arch == "cnn_transformer" {
			pcfg.Method = "full"
		}
		if f := d.Snapshots[0]; f.Is2D() {
			// 2-D cases sample the whole plane (the OF2D workflow).
			pcfg.CubeSx, pcfg.CubeSy, pcfg.CubeSz = f.Nx, f.Ny, 1
			pcfg.NumHypercubes = 1
		}
		pcfg.FitTo(d.Snapshots[0])
		cubes, err = sampling.SubsampleDataset(context.Background(), d, pcfg)
	}
	if err != nil {
		fatal("subsample", err)
	}
	if len(cubes) == 0 {
		fatal("subsample", errors.New("no cube samples to train on"))
	}

	// The spec is both the model factory and, with -ckpt-out, the recipe a
	// serving process needs to rebuild checkpoint-compatible replicas.
	spec = spec.SizedFor(d, cubes[0].Cube.Sx)
	if err := spec.Validate(); err != nil {
		fatal("validate arch spec", err)
	}
	ex, err := spec.Examples(d, cubes, *window)
	if err != nil {
		fatal("build examples", err)
	}
	factory := spec.Factory()
	meterTrain := energy.NewMeter()

	lr := 0.001
	if *doTune {
		// Hidden width only applies to the LSTM; for the other
		// architectures the factory ignores it and the search tunes LR
		// and batch.
		factoryFor := func(hidden int) train.ModelFactory {
			if spec.Arch == "lstm" {
				s := spec
				s.Hidden = hidden
				return s.Factory()
			}
			return factory
		}
		trials, err := tune.Search(context.Background(), factoryFor, ex, tune.Space{}, tune.Config{
			Trials: 6, RungEpochs: 3, FinalEpochs: *epochs / 2, Seed: *seed, Ranks: *ranks,
		})
		if err != nil {
			fatal("hyperparameter search", err)
		}
		fmt.Println("tuning winner:", tune.Best(trials))
		lr = trials[0].LR
		*batch = trials[0].Batch
	}

	model, hist, err := train.Train(context.Background(), factory, ex, train.Config{
		LR:     lr,
		Epochs: *epochs, Batch: *batch, Seed: *seed, Ranks: *ranks,
		Normalize: true, Meter: meterTrain, Verbose: true,
		CostModel: sickle.DefaultCostModel(),
		Metrics:   rec.MetricsRegistry(), Tracer: rec.Tracer(),
	})
	if err != nil {
		fatal("train", err)
	}

	if *ckptOut != "" {
		if err := nn.SaveCheckpoint(*ckptOut, model); err != nil {
			fatal("save checkpoint", err)
		}
		specJSON, _ := json.Marshal(spec)
		fmt.Printf("wrote checkpoint %s (arch spec: %s, input shape %v)\n",
			*ckptOut, specJSON, ex[0].Input.Shape)
	}
	fmt.Printf("model: %s (%d parameters), %d examples, %d ranks\n",
		model.Name(), hist.Params, len(ex), *ranks)
	fmt.Printf("Evaluation on test set: %.6f\n", hist.FinalLoss)
	fmt.Printf("observability: trace %s (%d epoch spans recorded)\n",
		hist.TraceID, hist.Epochs)
	fmt.Printf("sampling  %s\n", meterSample.String())
	fmt.Printf("training  %s\n", meterTrain.String())
	meterSample.Add(meterTrain)
	fmt.Printf("combined  %s\n", meterSample.String())
}
