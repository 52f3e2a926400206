package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/train"
)

// DemoModel is a tiny trained surrogate checkpoint produced by TrainDemo —
// the shared ingredient behind `sickle-serve -demo` and `sickle-shard
// -demo`. Train once, register on any number of servers.
type DemoModel struct {
	Spec       train.ArchSpec
	Checkpoint string
	InputShape []int
	Params     int
	FinalLoss  float64
}

// TrainDemo runs the paper's offline T1→T2 pipeline at toy scale —
// subsample GESTS-2048, train an MLP-Transformer, checkpoint it — so a
// bare `-demo` server answers /v2/infer as soon as it is up (what
// .github/smoke.sh relies on).
func TrainDemo(ctx context.Context) (*DemoModel, error) {
	d, err := sickle.BuildDataset("GESTS-2048", sickle.Small)
	if err != nil {
		return nil, err
	}
	res, err := sickle.Loop{
		Pipeline: sampling.PipelineConfig{
			Hypercubes: "random", Method: "random",
			NumHypercubes: 6, NumSamples: 64,
			CubeSx: 8, Seed: 1,
		},
		Arch:  train.ArchSpec{Arch: "mlp_transformer", Hidden: 16, Heads: 2},
		Train: train.Config{Epochs: 5, Batch: 4, Seed: 1},
	}.Run(ctx, d)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("sickle-demo-%d.sknn", os.Getpid()))
	if err := nn.SaveCheckpoint(path, res.Model); err != nil {
		return nil, err
	}
	return &DemoModel{
		Spec:       res.Spec,
		Checkpoint: path,
		InputShape: res.Examples[0].Input.Shape,
		Params:     res.History.Params,
		FinalLoss:  res.History.FinalLoss,
	}, nil
}

// Register publishes the checkpoint to s under name with the given
// model-replica count.
func (d *DemoModel) Register(s *Server, name string, replicas int) error {
	_, err := s.Registry().Register(name, d.Spec, d.Checkpoint, d.InputShape, replicas)
	return err
}
