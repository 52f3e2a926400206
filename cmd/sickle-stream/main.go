// sickle-stream is the in-situ variant of the T1 stage: instead of
// materializing a full dataset on disk and then subsampling it, it couples a
// snapshot producer (a live solver, a synthetic generator, or a replay of a
// registry dataset) directly to the two-phase sampling pipeline under a
// fixed in-flight snapshot window, streaming the selection into per-rank
// .skl shards. It reports throughput, the peak-RSS proxy (max buffered
// snapshot bytes), and selection-quality stats, optionally against the
// offline sickle-subsample result.
//
// Usage:
//
//	sickle-stream -source replay -dataset SST-P1F4 -n 4 -window 2 -o stream
//	sickle-stream -source cfd3d -grid 32 -snapshots 16 -steps-per 2 -o stream
//	sickle-stream -case case.yaml -compare-offline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cfd2d"
	"repro/internal/cfd3d"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/grid"
	olog "repro/internal/obs/log"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/tier"
)

func main() {
	caseFile := flag.String("case", "", "YAML case file whose subsample section sets the pipeline (-hypercubes and -method override it)")
	source := flag.String("source", "replay", "snapshot source: replay|cfd2d|cfd3d|synth")
	dataset := flag.String("dataset", "SST-P1F4", "dataset name for -source replay")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale for -source replay: small|large")
	snapshots := flag.Int("snapshots", 8, "snapshots to stream from a live source")
	stepsPer := flag.Int("steps-per", 2, "solver steps between snapshots (live sources)")
	gridN := flag.Int("grid", 32, "grid edge for live 3-D sources (power of two)")
	ranks := flag.Int("n", 0, "minimpi worker ranks")
	window := flag.Int("window", 0, "max in-flight snapshots (memory budget)")
	mergeEvery := flag.Int("merge-every", 0, "collective sketch merge period in snapshots (0 = end only)")
	budget := flag.Int("budget", 0, "per-cube reservoir budget across the stream (0 = keep all)")
	out := flag.String("o", "", "shard path prefix (empty = keep selection in memory)")
	hsel := flag.String("hypercubes", "", "phase-1 selector: random|maxent")
	method := flag.String("method", "", "phase-2 sampler: full|random|uniform|lhs|stratified|uips|maxent")
	compare := flag.Bool("compare-offline", false, "also run the offline pipeline and compare selection quality (replay source only)")
	newLogger := olog.Flags(flag.CommandLine)
	debugAddr := flag.String("debug-addr", "", "pprof + metrics + traces listen address for the run (\"\" = off)")
	flag.Parse()
	// The live 3-D sources transform the grid spectrally (the synth source
	// at half height along y), so a bad edge is a usage error, not a panic
	// inside the solver.
	if n := *gridN; n < 4 || n&(n-1) != 0 {
		fmt.Fprintf(os.Stderr, "sickle-stream: -grid %d is not a power of two >= 4\n", n)
		os.Exit(2)
	}

	lg := newLogger()
	fatal := func(msg string, kv ...any) {
		lg.Error(msg, kv...)
		os.Exit(1)
	}
	pcfg, err := config.LoadPipeline(*caseFile)
	if err != nil {
		fatal("load case file", "err", err)
	}
	if *hsel != "" {
		pcfg.Hypercubes = *hsel
	}
	if *method != "" {
		pcfg.Method = *method
	}
	scfg := stream.Config{Ranks: *ranks, Window: *window, MergeEvery: *mergeEvery,
		ReservoirBudget: *budget, ShardPrefix: *out}

	var (
		src       stream.SnapshotSource
		offlineDS *grid.Dataset
	)
	switch *source {
	case "replay":
		d, err := sickle.BuildDataset(*dataset, scale)
		if err != nil {
			fatal("build dataset", "err", err)
		}
		offlineDS = d
		src = stream.NewReplaySource(d)
	case "cfd2d":
		src = stream.NewCFD2DSource(cfd2d.Config{
			Nx: 180, Ny: 60, U0: 0.1, Reynolds: 150, D: 12, Cx: 30, Cy: 30,
		}, 500, *snapshots, *stepsPer)
	case "cfd3d":
		src = stream.NewCFD3DSource(cfd3d.Config{N: *gridN, Seed: 11, BruntN: 2},
			*snapshots, *stepsPer)
	case "synth":
		src = stream.NewSynthSource(synth.StratifiedConfig{
			Nx: *gridN, Ny: *gridN / 2, Nz: *gridN, Seed: 13, AnisoFactor: 6, Froude: 0.15,
		}, *snapshots)
	default:
		fatal("unknown source (want replay|cfd2d|cfd3d|synth)", "source", *source)
	}
	defer src.Close()

	meter := energy.NewMeter()
	pcfg.Meter = meter
	scfg.Pipeline = pcfg
	scfg.Cost = sickle.DefaultCostModel()

	// Observability: the run always records stage metrics and spans; the
	// -debug-addr sidecar additionally serves them (plus pprof) live.
	rec := tier.New(tier.Config{Name: "stream", Logger: lg})
	scfg.Metrics = rec.MetricsRegistry()
	scfg.Tracer = rec.Tracer()
	scfg.Journal = rec.Journal()
	if *debugAddr != "" {
		rec.History().Start()
		defer rec.History().Stop()
		rec.ServeDebug(*debugAddr)
	}

	res, err := stream.Run(context.Background(), src, scfg)
	if err != nil {
		fatal("stream run", "err", err)
	}

	meta := src.Meta()
	fmt.Printf("source: %s (%s), %d snapshots streamed\n", *source, meta.Label, res.Snapshots)
	fmt.Printf("pipeline: H%s-X%s, %d cubes kept, %d points selected\n",
		pcfg.Hypercubes, pcfg.Method, len(res.Kept), res.Points)
	fmt.Printf("throughput: %.2f snapshots/s (elapsed %v, sim comm %.3g s, %d merge rounds)\n",
		res.SnapshotsPerSec, res.Elapsed, res.World.MaxSimCommSeconds(), res.MergeRounds)
	fmt.Printf("memory: peak %d buffered snapshots (%.2f MiB) — window budget held\n",
		res.PeakBuffered, float64(res.PeakBufferedBytes)/(1<<20))
	fmt.Printf("selection quality: sketch uniformity %.3f over %d occupied cells\n",
		res.Sketch.UniformityIndex(), res.Sketch.OccupiedCells())
	fmt.Printf("observability: trace %s, %d backpressure stalls (%.3fs stalled)\n",
		res.TraceID, res.Stalls, res.StallSeconds)
	fmt.Println(meter.String())
	for _, p := range res.ShardPaths {
		fmt.Printf("wrote %s\n", p)
	}

	if *compare {
		if offlineDS == nil {
			fatal("-compare-offline requires -source replay")
		}
		// Use the clamped config the stream actually ran with, so both
		// selections share the same cube geometry.
		offline, err := sampling.SubsampleDataset(context.Background(), offlineDS, res.Pipeline)
		if err != nil {
			fatal("offline comparison run", "err", err)
		}
		// Score the offline selection on the stream's own sketch geometry so
		// the two uniformity numbers are directly comparable.
		ho := stats.NewNDHistogram(res.Sketch.Lo, res.Sketch.Hi, res.Sketch.Bins)
		nOffline := 0
		for i := range offline {
			for _, row := range offline[i].Features {
				ho.Add(row)
			}
			nOffline += len(offline[i].LocalIdx)
		}
		du := res.Sketch.UniformityIndex() - ho.UniformityIndex()
		fmt.Printf("offline reference: %d points, uniformity %.3f (stream-offline delta %+.4f)\n",
			nOffline, ho.UniformityIndex(), du)
	}
}
