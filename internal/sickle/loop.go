package sickle

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/train"
)

// Loop is the paper's workflow (Fig. 2) as one value: T1 two-phase
// subsample → T2 train a Table 2 surrogate → T3 test loss against the Eq. 3
// energy of both stages. The figure drivers, serve's training jobs and demo
// model, and examples/stratified-pipeline run this; what differs between
// them is only the four configurations it carries.
type Loop struct {
	Pipeline sampling.PipelineConfig
	// Arch names the surrogate. Dimensions left zero are sized from the
	// dataset and the cube edge (train.ArchSpec.SizedFor); the architecture
	// also decides the example layout (train.ArchSpec.Examples).
	Arch   train.ArchSpec
	Window int // snapshots per example (default 1)
	Train  train.Config
}

// LoopResult is everything one pass produced. Report carries the Eq. 3
// energies of the two stages and the test loss; the caller labels it.
type LoopResult struct {
	Cubes    []sampling.CubeSample
	Spec     train.ArchSpec // Arch as built, every dimension filled
	Examples []train.Example
	Model    train.Model
	History  *train.History
	Report   energy.Report
}

// Run subsamples d — cube geometry fitted to its first snapshot by the one
// rule, PipelineConfig.FitTo — and fits the surrogate on the selection.
func (l Loop) Run(ctx context.Context, d *grid.Dataset) (*LoopResult, error) {
	if l.Pipeline.Meter == nil {
		l.Pipeline.Meter = energy.NewMeter()
	}
	l.Pipeline.FitTo(d.Snapshots[0])
	cubes, err := sampling.SubsampleDataset(ctx, d, l.Pipeline)
	if err != nil {
		return nil, err
	}
	return l.Fit(ctx, d, cubes)
}

// Fit is T2 and T3 over samples that already exist (a loaded .skl file, a
// streamed selection): lay them out for the architecture, train, evaluate.
// The sampling energy reported is whatever Pipeline.Meter has been charged.
func (l Loop) Fit(ctx context.Context, d *grid.Dataset, cubes []sampling.CubeSample) (*LoopResult, error) {
	if len(cubes) == 0 {
		return nil, errors.New("sickle: no cube samples to train on")
	}
	edge := cubes[0].Cube.Sx
	spec := l.Arch.SizedFor(d, edge)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The data fixes every dimension, so one the caller named must agree
	// with it: a mismatch would otherwise surface as a shape panic in the
	// first forward pass.
	if fit := (train.ArchSpec{Arch: spec.Arch, Hidden: spec.Hidden, Heads: spec.Heads}).SizedFor(d, edge); spec != fit {
		return nil, fmt.Errorf("sickle: arch spec %+v does not fit the data, which needs %+v", spec, fit)
	}
	examples, err := spec.Examples(d, cubes, l.Window)
	if err != nil {
		return nil, err
	}
	if l.Train.Meter == nil {
		l.Train.Meter = energy.NewMeter()
	}
	model, hist, err := train.Train(ctx, spec.Factory(), examples, l.Train)
	if err != nil {
		return nil, err
	}
	res := &LoopResult{Cubes: cubes, Spec: spec, Examples: examples, Model: model, History: hist,
		Report: energy.Report{TrainJoules: l.Train.Meter.Joules(), EvalLoss: hist.FinalLoss}}
	if l.Pipeline.Meter != nil {
		res.Report.SampleJoules = l.Pipeline.Meter.Joules()
	}
	return res, nil
}
