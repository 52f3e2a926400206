package sickle

import (
	"context"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/train"
)

// Fig6Row reports the drag-surrogate accuracy study for one
// (method, sample-count) cell: mean and standard deviation of the test
// loss over replicates — the reproducibility comparison of Fig. 6.
type Fig6Row struct {
	Method     string
	NumSamples int
	MeanLoss   float64
	StdLoss    float64
}

// Fig6Config scales the experiment; the LSTM reads windows of fig6Window
// snapshots, the paper's 3.
type Fig6Config struct {
	SampleSizes []int // paper: 540, 1080, 2160
	Replicates  int   // paper: 3
	Epochs      int
}

const fig6Window = 3

func (c *Fig6Config) defaults() {
	if len(c.SampleSizes) == 0 {
		c.SampleSizes = []int{540, 1080, 2160}
	}
	if c.Replicates <= 0 {
		c.Replicates = 3
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
}

// Fig6 trains LSTM drag surrogates on OF2D with random vs MaxEnt sampling
// across sample counts and replicates.
func Fig6(ctx context.Context, scale Scale, cfg Fig6Config) ([]Fig6Row, error) {
	cfg.defaults()
	d, err := BuildDataset("OF2D", scale)
	if err != nil {
		return nil, err
	}
	var out []Fig6Row
	for _, method := range []string{"random", "maxent"} {
		for _, ns := range cfg.SampleSizes {
			var losses []float64
			for rep := 0; rep < cfg.Replicates; rep++ {
				seed := int64(1000*rep + ns)
				res, err := Loop{
					Pipeline: sampling.PipelineConfig{
						Hypercubes: "random", Method: method,
						NumHypercubes: 1 << 30, // keep every cube: 2-D snapshot-wide sampling
						NumSamples:    ns,
						CubeSx:        d.Snapshots[0].Nx, CubeSy: d.Snapshots[0].Ny, CubeSz: 1,
						NumClusters: 10, Seed: seed,
					},
					Arch:   train.ArchSpec{Arch: "lstm"},
					Window: fig6Window,
					Train:  train.Config{Epochs: cfg.Epochs, Batch: 8, Seed: seed, Normalize: true},
				}.Run(ctx, d)
				if err != nil {
					return nil, err
				}
				losses = append(losses, res.Report.EvalLoss)
			}
			m := stats.ComputeMoments(losses)
			out = append(out, Fig6Row{
				Method: method, NumSamples: ns,
				MeanLoss: m.Mean, StdLoss: math.Sqrt(m.Variance),
			})
		}
	}
	return out, nil
}

// Fig8Case is one point of the loss-vs-energy comparison: a hypercube
// selector × point sampler combination on one dataset, with metered
// sampling and training energy (Eq. 3's two cost terms).
type Fig8Case struct {
	Dataset string
	Case    string // e.g. "Hmaxent-Xmaxent"
	Report  energy.Report
}

// figCubes is the hypercube count Figs. 8 and 9 sample from a snapshot.
const figCubes = 2

// Fig8Config scales the experiment.
type Fig8Config struct {
	Datasets []string
	Epochs   int
	CubeEdge int
}

func (c *Fig8Config) defaults() {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"SST-P1F4", "SST-P1F100", "GESTS-2048"}
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.CubeEdge <= 0 {
		c.CubeEdge = 16
	}
}

// Fig8 runs the paper's case matrix (the slurm script's CASES list) and
// reports test loss vs total energy for each.
func Fig8(ctx context.Context, scale Scale, cfg Fig8Config) ([]Fig8Case, error) {
	cfg.defaults()
	cases := []struct {
		name, hsel, method string
	}{
		{"Hmaxent-Xmaxent", "maxent", "maxent"},
		{"Hmaxent-Xuips", "maxent", "uips"},
		{"Hrandom-Xfull", "random", "full"},
		{"Hrandom-Xmaxent", "random", "maxent"},
		{"Hrandom-Xuips", "random", "uips"},
	}
	var out []Fig8Case
	for _, dsName := range cfg.Datasets {
		d, err := BuildDataset(dsName, scale)
		if err != nil {
			return nil, err
		}
		for _, cs := range cases {
			// Dense cubes -> CNN-Transformer (per the paper's notes).
			arch := "mlp_transformer"
			if cs.method == "full" {
				arch = "cnn_transformer"
			}
			// NumSamples stays at the pipeline's default, the paper's 10% rate.
			res, err := Loop{
				Pipeline: sampling.PipelineConfig{
					Hypercubes: cs.hsel, Method: cs.method,
					NumHypercubes: figCubes, CubeSx: cfg.CubeEdge,
					NumClusters: 5, Seed: 4,
				},
				Arch:  train.ArchSpec{Arch: arch},
				Train: train.Config{Epochs: cfg.Epochs, Batch: 4, Seed: 5, Normalize: true},
			}.Run(ctx, d)
			if err != nil {
				return nil, err
			}
			res.Report.Label = fmt.Sprintf("%s/%s", dsName, cs.name)
			out = append(out, Fig8Case{Dataset: dsName, Case: cs.name, Report: res.Report})
		}
	}
	return out, nil
}

// Fig9Row reports the MATEY foundation-model comparison for one sampling
// strategy: validation loss and total energy at 10% sampling.
type Fig9Row struct {
	Method string
	Report energy.Report
}

// Fig9Config scales the experiment.
type Fig9Config struct {
	Epochs   int // paper: 50
	CubeEdge int
}

func (c *Fig9Config) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.CubeEdge <= 0 {
		c.CubeEdge = 16
	}
}

// Fig9 trains the MATEY-like multiscale model on SST-P1F4 with uniform,
// random, and MaxEnt sampling at 10%: the full-full layout scatters the
// sampled points into zero-masked dense cubes (SICKLE as a
// data-sparsification preprocessor for a dense foundation model).
func Fig9(ctx context.Context, scale Scale, cfg Fig9Config) ([]Fig9Row, error) {
	cfg.defaults()
	d, err := BuildDataset("SST-P1F4", scale)
	if err != nil {
		return nil, err
	}
	var out []Fig9Row
	for _, method := range []string{"uniform", "random", "maxent"} {
		res, err := Loop{
			Pipeline: sampling.PipelineConfig{
				Hypercubes: "random", Method: method,
				NumHypercubes: figCubes, CubeSx: cfg.CubeEdge,
				NumClusters: 5, Seed: 6,
			},
			Arch:  train.ArchSpec{Arch: "matey"},
			Train: train.Config{Epochs: cfg.Epochs, Batch: 4, Seed: 7, Normalize: true},
		}.Run(ctx, d)
		if err != nil {
			return nil, err
		}
		res.Report.Label = "MATEY/" + method
		out = append(out, Fig9Row{Method: method, Report: res.Report})
	}
	return out, nil
}
