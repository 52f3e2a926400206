package stream

import (
	"fmt"
	"io"

	"repro/internal/cfd2d"
	"repro/internal/cfd3d"
	"repro/internal/grid"
	"repro/internal/synth"
)

// SourceMeta describes what a SnapshotSource emits: the learning-problem
// variable roles (Table 1 columns) and, when known in advance, how many
// snapshots the stream will carry. TotalSnapshots == 0 means unbounded or
// unknown — the pipeline runs until Next returns io.EOF either way.
type SourceMeta struct {
	Label          string
	InputVars      []string
	OutputVars     []string
	ClusterVar     string
	TotalSnapshots int
}

// SnapshotSource is the producer side of the in-situ pipeline: anything that
// can emit simulation snapshots one at a time — a live solver, a synthetic
// generator, or a replay of an on-disk dataset. Next returns io.EOF when the
// stream is exhausted. Sources need not be safe for concurrent use; the
// pipeline calls Next from a single producer goroutine.
type SnapshotSource interface {
	Meta() SourceMeta
	Next() (*grid.Field, error)
	Close() error
}

// ---------------------------------------------------------------------------
// Replay adapter: stream an already-materialized dataset.

// ReplaySource replays a materialized dataset snapshot by snapshot. It is
// the bridge from the offline world (and the reference the parity tests
// stream against): the pipeline sees exactly the fields the offline
// subsample saw, in order.
type ReplaySource struct {
	d   *grid.Dataset
	pos int
}

// NewReplaySource wraps a dataset for streaming replay.
func NewReplaySource(d *grid.Dataset) *ReplaySource { return &ReplaySource{d: d} }

// Meta implements SnapshotSource.
func (s *ReplaySource) Meta() SourceMeta {
	return SourceMeta{
		Label:          s.d.Label,
		InputVars:      s.d.InputVars,
		OutputVars:     s.d.OutputVars,
		ClusterVar:     s.d.ClusterVar,
		TotalSnapshots: len(s.d.Snapshots),
	}
}

// Next implements SnapshotSource.
func (s *ReplaySource) Next() (*grid.Field, error) {
	if s.pos >= len(s.d.Snapshots) {
		return nil, io.EOF
	}
	f := s.d.Snapshots[s.pos]
	s.pos++
	return f, nil
}

// Close implements SnapshotSource.
func (s *ReplaySource) Close() error { return nil }

// ---------------------------------------------------------------------------
// Live solver adapters: one per solver family. Each advances its solver
// in-situ and emits derived-variable-complete snapshots, so no trajectory is
// ever materialized beyond the pipeline's bounded window.

// CFD2DSource streams snapshots from the live lattice-Boltzmann cylinder
// solver (the OF2D family): warmup steps first, then one snapshot every
// StepsPer steps, NumSnapshots times.
type CFD2DSource struct {
	solver       *cfd2d.Solver
	warmup       int
	stepsPer     int
	numSnapshots int
	emitted      int
}

// NewCFD2DSource builds a live OF2D-family source.
func NewCFD2DSource(cfg cfd2d.Config, warmup, numSnapshots, stepsPer int) *CFD2DSource {
	if numSnapshots <= 0 {
		numSnapshots = 1
	}
	if stepsPer <= 0 {
		stepsPer = 1
	}
	return &CFD2DSource{
		solver: cfd2d.New(cfg), warmup: warmup,
		stepsPer: stepsPer, numSnapshots: numSnapshots,
	}
}

// Meta implements SnapshotSource (the OF2D variable roles of Table 1).
func (s *CFD2DSource) Meta() SourceMeta {
	return SourceMeta{
		Label:          "OF2D-stream",
		InputVars:      []string{"u", "v"},
		OutputVars:     []string{"p"},
		ClusterVar:     "wz",
		TotalSnapshots: s.numSnapshots,
	}
}

// Next implements SnapshotSource.
func (s *CFD2DSource) Next() (*grid.Field, error) {
	if s.emitted >= s.numSnapshots {
		return nil, io.EOF
	}
	if s.emitted == 0 {
		for i := 0; i < s.warmup; i++ {
			s.solver.Step()
		}
	}
	for i := 0; i < s.stepsPer; i++ {
		s.solver.Step()
	}
	s.emitted++
	return s.solver.Snapshot(), nil
}

// Close implements SnapshotSource.
func (s *CFD2DSource) Close() error { return nil }

// CFD3DSource streams snapshots from the live Boussinesq Taylor-Green
// solver (the SST-P1F4 family). Snapshot 0 is the initial condition, then
// one snapshot every StepsPer steps — the same schedule as
// cfd3d.EvolveDataset, so a streamed run sees the identical trajectory.
type CFD3DSource struct {
	solver       *cfd3d.Solver
	stepsPer     int
	numSnapshots int
	emitted      int
}

// NewCFD3DSource builds a live SST-family source.
func NewCFD3DSource(cfg cfd3d.Config, numSnapshots, stepsPer int) *CFD3DSource {
	if numSnapshots <= 0 {
		numSnapshots = 1
	}
	if stepsPer <= 0 {
		stepsPer = 1
	}
	return &CFD3DSource{
		solver: cfd3d.NewTaylorGreen(cfg), stepsPer: stepsPer, numSnapshots: numSnapshots,
	}
}

// Meta implements SnapshotSource (the SST variable roles of Table 1).
func (s *CFD3DSource) Meta() SourceMeta {
	return SourceMeta{
		Label:          "SST-stream",
		InputVars:      []string{"u", "v", "w", "r"},
		OutputVars:     []string{"p"},
		ClusterVar:     "pv",
		TotalSnapshots: s.numSnapshots,
	}
}

// Next implements SnapshotSource.
func (s *CFD3DSource) Next() (*grid.Field, error) {
	if s.emitted >= s.numSnapshots {
		return nil, io.EOF
	}
	if s.emitted > 0 {
		for i := 0; i < s.stepsPer; i++ {
			s.solver.Step()
		}
	}
	s.emitted++
	return s.solver.Snapshot(), nil
}

// Close implements SnapshotSource.
func (s *CFD3DSource) Close() error { return nil }

// SynthSource streams the SST-like trajectory of synth.SSTDataset,
// generating each snapshot (synth.SSTSnapshot) only when the pipeline asks
// for it.
type SynthSource struct {
	cfg          synth.StratifiedConfig
	numSnapshots int
	emitted      int
}

// NewSynthSource builds a generator-backed SST-analogue source.
func NewSynthSource(cfg synth.StratifiedConfig, numSnapshots int) *SynthSource {
	if numSnapshots <= 0 {
		numSnapshots = 1
	}
	return &SynthSource{cfg: cfg, numSnapshots: numSnapshots}
}

// Meta implements SnapshotSource.
func (s *SynthSource) Meta() SourceMeta {
	return SourceMeta{
		Label:          "SST-synth-stream",
		InputVars:      []string{"u", "v", "w", "r"},
		OutputVars:     []string{"p"},
		ClusterVar:     "pv",
		TotalSnapshots: s.numSnapshots,
	}
}

// Next implements SnapshotSource.
func (s *SynthSource) Next() (*grid.Field, error) {
	if s.emitted >= s.numSnapshots {
		return nil, io.EOF
	}
	f := synth.SSTSnapshot(s.cfg, s.emitted)
	s.emitted++
	return f, nil
}

// Close implements SnapshotSource.
func (s *SynthSource) Close() error { return nil }

// countingSource wraps a source and fails fast on nil fields, guarding
// adapter bugs at the pipeline boundary.
type countingSource struct {
	src  SnapshotSource
	seen int
}

func (c *countingSource) next() (*grid.Field, error) {
	f, err := c.src.Next()
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("stream: source %q returned nil field at snapshot %d",
			c.src.Meta().Label, c.seen)
	}
	c.seen++
	return f, nil
}
