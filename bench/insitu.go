package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfd3d"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stream"
)

// insituStreamDef is the in-situ path: one stream.Run over a replayed
// solver trajectory, under a two-snapshot memory window, into .skl shards.
var insituStreamDef = workloadDef{
	name: "insitu-stream",
	why: "the in-situ streaming path: sampling (streamed windows, UIPS, reservoir), stream, minimpi, stats " +
		"and the .skl store's write path dominate; nn/tensor matmul and the serving tiers do nothing",
	block:   insituSeeds,
	warmup:  3 * insituSeeds,
	clients: 1,
	setup:   setupInsituStream,
}

const (
	insituSeeds     = 8 // pipeline seeds cycled by op index
	insituSnapshots = 30
	insituStepsPer  = 2
	insituGrid      = 32
	insituCubes     = 4
	insituEdge      = 16
	insituPoints    = 410
	insituRanks     = 2
	insituWindow    = 2
	insituMergeEach = 4
	insituBudget    = 1024
)

// insituPipeline names all three cube edges: stream.Run fills a missing
// CubeSy/CubeSz with min(32, grid) where the offline pipeline fills it
// with CubeSx, so CubeSx alone would stream 16×32×32 slabs (see
// README.md, "Findings").
func insituPipeline(seed int64, m *energy.Meter) sampling.PipelineConfig {
	return sampling.PipelineConfig{
		Hypercubes: "maxent", Method: "uips",
		NumHypercubes: insituCubes, NumSamples: insituPoints,
		CubeSx: insituEdge, CubeSy: insituEdge, CubeSz: insituEdge,
		Seed: seed, Meter: m,
	}
}

type insituStream struct {
	seed   int64
	dir    string
	d      *grid.Dataset
	tracer *obs.Tracer // the program's own stream tracer; nil when tracing is off
}

func setupInsituStream(ctx context.Context, e *env) (workload, error) {
	_, end := e.rec.begin(-1, -1, "cfd3d.build")
	d := cfd3d.EvolveDataset("bench-sst", insituSnapshots, insituStepsPer,
		cfd3d.Config{N: insituGrid, Seed: e.seed, BruntN: 2})
	end()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := &insituStream{seed: e.seed, dir: e.dir, d: d}
	if e.rec != nil {
		s.tracer = obs.NewTracer("stream", 0)
	}
	return s, nil
}

func insituOpSeed(seed int64, i int) int64 { return seed*1000 + int64(i%insituSeeds) }

// streamSpanNames maps stream.Config.Tracer's span names to layer names.
var streamSpanNames = map[string]string{
	"phase1:select":   "stream.phase1",
	"phase2:snapshot": "stream.phase2",
	"merge:sketch":    "stats.sketch_merge",
}

func (s *insituStream) op(ctx context.Context, i int, rec *recorder) (time.Duration, error) {
	m := energy.NewMeter()
	cfg := stream.Config{
		Pipeline: insituPipeline(insituOpSeed(s.seed, i), m),
		Ranks:    insituRanks, Window: insituWindow, MergeEvery: insituMergeEach,
		ReservoirBudget: insituBudget,
		ShardPrefix:     filepath.Join(s.dir, "insitu"),
		Cost:            sickle.DefaultCostModel(),
	}
	if rec != nil {
		cfg.Tracer = s.tracer
	}
	t0 := time.Now()
	opID, endOp := rec.begin(i, -1, "op")
	runID, endRun := rec.begin(i, opID, "stream.run")
	res, err := stream.Run(ctx, stream.NewReplaySource(s.d), cfg)
	endRun()
	endOp()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}

	if rec != nil {
		for _, sp := range s.tracer.Spans(res.TraceID) {
			if name, ok := streamSpanNames[sp.Name]; ok {
				rec.add(i, runID, name, sp.Start, sp.Seconds)
			}
		}
		countEnergy(rec, m)
		rec.count("stream.snapshots", float64(res.Snapshots))
		rec.count("stream.points", float64(res.Points))
		rec.count("stream.elapsed_s", res.Elapsed.Seconds())
		rec.count("stream.stalls", float64(res.Stalls))
		rec.count("stream.stall_s", res.StallSeconds)
		rec.count("stream.merge_rounds", float64(res.MergeRounds))
		rec.count("minimpi.sim_comm_s", res.World.MaxSimCommSeconds())
		rec.peak("stream.peak_buffered_bytes", float64(res.PeakBufferedBytes))
	}

	// Output check: every shard reloads, the shards hold exactly the
	// points the run reported, and the window held.
	if res.Snapshots != insituSnapshots {
		return lat, fmt.Errorf("streamed %d snapshots, want %d", res.Snapshots, insituSnapshots)
	}
	if res.PeakBuffered > insituWindow {
		return lat, fmt.Errorf("peak %d buffered snapshots exceeds window %d", res.PeakBuffered, insituWindow)
	}
	if len(res.ShardPaths) != insituRanks {
		return lat, fmt.Errorf("%d shards, want %d", len(res.ShardPaths), insituRanks)
	}
	var all []sampling.CubeSample
	for _, p := range res.ShardPaths {
		_, end := rec.begin(i, -1, "sickle.load")
		cubes, err := sickle.LoadCubeSamples(p)
		end()
		if err != nil {
			return lat, err
		}
		all = append(all, cubes...)
		if rec != nil {
			if st, err := os.Stat(p); err == nil {
				rec.count("sickle.shard_bytes", float64(st.Size()))
			}
		}
	}
	if got := countPoints(all); got != res.Points || got == 0 {
		return lat, fmt.Errorf("shards hold %d points, run reported %d", got, res.Points)
	}
	if rec != nil {
		// Probe the store's one-shot write path with the op's own result.
		_, end := rec.begin(i, -1, "sickle.save")
		err := sickle.SaveCubeSamples(filepath.Join(s.dir, "insitu-probe.skl"), all)
		end()
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}

func (s *insituStream) traceStart(context.Context) error { return nil }

// traceEnd replays the offline two-phase pipeline over the same
// snapshots, once per cycled seed: the sampling layer's own share of an
// op, and the base stream.overhead_share is measured against.
func (s *insituStream) traceEnd(ctx context.Context, rec *recorder) error {
	for k := 0; k < insituSeeds; k++ {
		cubes, err := twoPhase(ctx, rec, -1, -1, s.d, insituPipeline(insituOpSeed(s.seed, k), nil))
		if err != nil {
			return err
		}
		if len(cubes) != insituSnapshots*insituCubes {
			return fmt.Errorf("offline replay gave %d cube samples, want %d", len(cubes), insituSnapshots*insituCubes)
		}
	}
	return probeSamplers(ctx, rec, s.d, s.seed)
}

func (s *insituStream) close() {}
