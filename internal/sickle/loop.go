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
// energy of both stages, with Tune as the optional search between T1 and
// T2. The figure drivers, serve's training jobs and demo model,
// examples/stratified-pipeline and sickle-train run this; what differs
// between them is only the four configurations it carries.
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

// Run is Subsample then Fit over the selection, with a fresh
// Pipeline.Meter when none is set.
func (l Loop) Run(ctx context.Context, d *grid.Dataset) (*LoopResult, error) {
	if l.Pipeline.Meter == nil {
		l.Pipeline.Meter = energy.NewMeter()
	}
	cubes, err := l.Subsample(ctx, d)
	if err != nil {
		return nil, err
	}
	return l.Fit(ctx, d, cubes)
}

// Subsample is T1: it fits the cube geometry to d's first snapshot by the
// one rule, PipelineConfig.FitTo, and selects cubes and points from every
// snapshot, charging Pipeline.Meter (which must be set).
func (l Loop) Subsample(ctx context.Context, d *grid.Dataset) ([]sampling.CubeSample, error) {
	l.Pipeline.FitTo(d.Snapshots[0])
	return sampling.SubsampleDataset(ctx, d, l.Pipeline)
}

// Fit is T2 and T3 over samples that already exist (a loaded .skl file, a
// streamed selection): lay them out for the architecture, train, evaluate.
// The sampling energy reported is whatever Pipeline.Meter has been charged.
func (l Loop) Fit(ctx context.Context, d *grid.Dataset, cubes []sampling.CubeSample) (*LoopResult, error) {
	if len(cubes) == 0 {
		return nil, errors.New("sickle: no cube samples to train on")
	}
	if err := checkSamples(d, cubes); err != nil {
		return nil, err
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

// checkSamples rejects samples that cannot have come from d — a .skl file
// of another dataset, say — before a layout indexes d with them: every
// snapshot must exist, every cube lie inside its grid, and every point be
// one of its cube's and carry d's input and output variables.
func checkSamples(d *grid.Dataset, cubes []sampling.CubeSample) error {
	in, out := len(d.InputVars), len(d.OutputVars)
	for i, cs := range cubes {
		if cs.Snapshot < 0 || cs.Snapshot >= len(d.Snapshots) {
			return fmt.Errorf("sickle: sample %d is of snapshot %d, but %s has %d", i, cs.Snapshot, d.Label, len(d.Snapshots))
		}
		f, c := d.Snapshots[cs.Snapshot], cs.Cube
		if c.I0 < 0 || c.J0 < 0 || c.K0 < 0 || c.Sx <= 0 || c.Sy <= 0 || c.Sz <= 0 ||
			c.I0+c.Sx > f.Nx || c.J0+c.Sy > f.Ny || c.K0+c.Sz > f.Nz {
			return fmt.Errorf("sickle: sample %d's cube %+v lies outside %s's %d×%d×%d grid", i, c, d.Label, f.Nx, f.Ny, f.Nz)
		}
		if len(cs.Features) != len(cs.LocalIdx) || len(cs.Targets) != len(cs.LocalIdx) {
			return fmt.Errorf("sickle: sample %d has %d points but %d feature and %d target rows",
				i, len(cs.LocalIdx), len(cs.Features), len(cs.Targets))
		}
		for r, li := range cs.LocalIdx {
			if li < 0 || li >= c.NPoints() {
				return fmt.Errorf("sickle: sample %d's point %d is not one of its cube's %d", i, li, c.NPoints())
			}
			if len(cs.Features[r]) != in || len(cs.Targets[r]) != out {
				return fmt.Errorf("sickle: sample %d carries %d inputs and %d outputs per point, but %s has %d and %d",
					i, len(cs.Features[r]), len(cs.Targets[r]), d.Label, in, out)
			}
		}
	}
	return nil
}
