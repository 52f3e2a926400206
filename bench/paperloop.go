package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/train"
)

// paperLoopDef is the paper's own T1→T2→T3 loop: two-phase subsample,
// build examples, train the Table 2 MLP-Transformer, evaluate.
var paperLoopDef = workloadDef{
	name: "paper-loop",
	why: "the paper's offline subsample-train-evaluate loop: train/nn/tensor forward and backward " +
		"do most of the work, shard/serve/durable none; carries the Eq. 3 joules",
	block:   paperSeeds,
	warmup:  4 * paperSeeds,
	clients: 1,
	setup:   setupPaperLoop,
}

// The loop's sizes: GESTS-2048 small is one 32³ snapshot, i.e. 64 cubes
// of 8³, of which phase 1 keeps 16; their 16 examples split 15:1 and make
// 2 optimizer steps per epoch at batch 8. Sampling costs in proportion to
// the cubes and training to cubes × epochs, so 18 epochs keep training
// above 70 % of the op while 16 cubes keep the op near 120 ms.
const (
	paperSeeds   = 8 // pipeline/training seeds cycled by op index
	paperCubes   = 16
	paperEdge    = 8
	paperPoints  = 64
	paperHidden  = 32
	paperHeads   = 4
	paperEpochs  = 18
	paperBatch   = 8
	paperDataset = "GESTS-2048"
)

func paperSpec(d *grid.Dataset) train.ArchSpec {
	return train.ArchSpec{Arch: "mlp_transformer", InDim: len(d.InputVars),
		Hidden: paperHidden, Heads: paperHeads, OutDim: len(d.OutputVars), Edge: paperEdge}
}

func paperPipeline(seed int64, m *energy.Meter) sampling.PipelineConfig {
	return sampling.PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: paperCubes, NumSamples: paperPoints,
		CubeSx: paperEdge, Seed: seed, Meter: m,
	}
}

// twoPhase is SubsampleDataset taken apart into its two public halves
// (SelectCubesForDataset on snapshot 0, then SubsampleSnapshotWithCubes
// per snapshot) with a span around each — the traced run's view of the
// sampling layer.
func twoPhase(ctx context.Context, rec *recorder, op, parent int, d *grid.Dataset, cfg sampling.PipelineConfig) ([]sampling.CubeSample, error) {
	_, end := rec.begin(op, parent, "sampling.phase1")
	kept, err := sampling.SelectCubesForDataset(ctx, d, 0, cfg)
	end()
	if err != nil {
		return nil, err
	}
	_, end = rec.begin(op, parent, "sampling.phase2")
	defer end()
	var out []sampling.CubeSample
	for t := range d.Snapshots {
		cs, err := sampling.SubsampleSnapshotWithCubes(ctx, d, t, kept, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	rec.count("sampling.points", float64(countPoints(out)))
	return out, nil
}

// countEnergy adds an op's metered Eq. 3 work to the run's counts.
func countEnergy(rec *recorder, m *energy.Meter) {
	rec.count("energy.joules", m.Joules())
	rec.count("energy.flops", float64(m.Flops()))
	rec.count("energy.bytes", float64(m.Bytes()))
}

func countPoints(cubes []sampling.CubeSample) int {
	n := 0
	for _, cs := range cubes {
		n += len(cs.LocalIdx)
	}
	return n
}

// buildExamplesOrdered is train.BuildSampleFull made repeatable:
// BuildSampleFull ranges over a Go map of cube IDs, so for identical
// cubes the example order — and with it the train/test split and the
// final loss — changes from call to call. Building one cube ID at a time
// in ascending order and concatenating fixes the order without touching
// internal/train (see README.md, "Findings").
func buildExamplesOrdered(d *grid.Dataset, cubes []sampling.CubeSample, window int) ([]train.Example, error) {
	byID := map[int][]sampling.CubeSample{}
	var ids []int
	for _, cs := range cubes {
		if _, seen := byID[cs.Cube.ID]; !seen {
			ids = append(ids, cs.Cube.ID)
		}
		byID[cs.Cube.ID] = append(byID[cs.Cube.ID], cs)
	}
	sort.Ints(ids)
	var out []train.Example
	for _, id := range ids {
		ex, err := train.BuildSampleFull(d, byID[id], window)
		if err != nil {
			return nil, err
		}
		out = append(out, ex...)
	}
	return out, nil
}

// paperResult is what one pass of the loop produced.
type paperResult struct {
	cubes     []sampling.CubeSample
	examples  []train.Example
	model     train.Model
	finalLoss float64 // History.FinalLoss, on the held-out tenth
	evalLoss  float64 // train.Evaluate over every example
	steps     int
}

// paperPass runs the loop once. Untraced it calls the same public entry
// points a user would (SubsampleDataset, Train, Evaluate); traced, the
// sampling call is replaced by its two halves and each stage gets a span
// under parent.
func paperPass(ctx context.Context, rec *recorder, op, parent int, d *grid.Dataset, seed int64, m *energy.Meter) (*paperResult, error) {
	var (
		r   paperResult
		err error
	)
	cfg := paperPipeline(seed, m)
	if rec == nil {
		r.cubes, err = sampling.SubsampleDataset(ctx, d, cfg)
	} else {
		r.cubes, err = twoPhase(ctx, rec, op, parent, d, cfg)
	}
	if err != nil {
		return nil, err
	}

	_, end := rec.begin(op, parent, "train.build_examples")
	r.examples, err = buildExamplesOrdered(d, r.cubes, 1)
	end()
	if err != nil {
		return nil, err
	}

	var before runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	_, end = rec.begin(op, parent, "train.fit")
	model, hist, err := train.Train(ctx, paperSpec(d).Factory(), r.examples, train.Config{
		Epochs: paperEpochs, Batch: paperBatch, Seed: seed, Meter: m,
	})
	end()
	if err != nil {
		return nil, err
	}
	nTrain := len(r.examples) - max(1, len(r.examples)/10) // train.Config's default 90:10 split
	r.steps = paperEpochs * ((nTrain + paperBatch - 1) / paperBatch)
	if rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec.count("train.mallocs", float64(after.Mallocs-before.Mallocs))
		rec.count("train.steps", float64(r.steps))
	}
	r.model, r.finalLoss = model, hist.FinalLoss

	_, end = rec.begin(op, parent, "train.eval")
	r.evalLoss = train.Evaluate(model, r.examples)
	end()
	return &r, nil
}

type paperLoop struct {
	seed int64
	dir  string
	d    *grid.Dataset
	// ref holds, per cycled seed, the losses of the warm-up pass: the
	// loop is deterministic, so every later pass with that seed must
	// reproduce them bit for bit.
	ref [paperSeeds]*[2]float64
}

func setupPaperLoop(ctx context.Context, e *env) (workload, error) {
	_, end := e.rec.begin(-1, -1, "synth.build")
	d, err := sickle.BuildDataset(paperDataset, sickle.Small)
	end()
	if err != nil {
		return nil, err
	}
	return &paperLoop{seed: e.seed, dir: e.dir, d: d}, nil
}

// paperOpSeed is the pipeline and training seed of op i.
func paperOpSeed(seed int64, i int) int64 { return seed*1000 + int64(i%paperSeeds) }

func (p *paperLoop) op(ctx context.Context, i int, rec *recorder) (time.Duration, error) {
	m := energy.NewMeter()
	t0 := time.Now()
	id, end := rec.begin(i, -1, "op")
	r, err := paperPass(ctx, rec, i, id, p.d, paperOpSeed(p.seed, i), m)
	end()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	countEnergy(rec, m)

	if math.IsNaN(r.finalLoss) || math.IsInf(r.finalLoss, 0) || math.IsNaN(r.evalLoss) || math.IsInf(r.evalLoss, 0) {
		return lat, fmt.Errorf("loss not finite: final %v eval %v", r.finalLoss, r.evalLoss)
	}
	got := [2]float64{r.finalLoss, r.evalLoss}
	if ref := p.ref[i%paperSeeds]; ref == nil {
		p.ref[i%paperSeeds] = &got // single caller, so no lock
	} else if *ref != got {
		return lat, fmt.Errorf("losses %v differ from the warm-up pass's %v for the same seed", got, *ref)
	}

	if rec != nil {
		// Probe the store with the op's own result: not part of the loop,
		// so outside the op span.
		path := filepath.Join(p.dir, "paper-loop.skl")
		_, end := rec.begin(i, -1, "sickle.save")
		err := sickle.SaveCubeSamples(path, r.cubes)
		end()
		if err != nil {
			return lat, err
		}
		_, end = rec.begin(i, -1, "sickle.load")
		back, err := sickle.LoadCubeSamples(path)
		end()
		if err != nil {
			return lat, err
		}
		if countPoints(back) != countPoints(r.cubes) {
			return lat, fmt.Errorf("store round trip lost points: %d != %d", countPoints(back), countPoints(r.cubes))
		}
	}
	return lat, nil
}

func (p *paperLoop) traceStart(context.Context) error { return nil }

func (p *paperLoop) traceEnd(ctx context.Context, rec *recorder) error {
	var losses []float64
	for _, ref := range p.ref {
		if ref != nil {
			losses = append(losses, ref[0])
		}
	}
	rec.count("train.val_loss", mean(losses))
	if err := probeSamplers(ctx, rec, p.d, p.seed); err != nil {
		return err
	}
	return probeModel(rec, p.d, p.seed)
}

func (p *paperLoop) close() {}
