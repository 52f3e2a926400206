// Package stream is SICKLE-Go's in-situ streaming subsampling subsystem:
// it couples the simulation producers (internal/synth, internal/cfd2d,
// internal/cfd3d — or a replay of an on-disk dataset) directly to the
// two-phase sampler under a fixed memory budget, so extreme-scale DNS output
// never has to land on disk before being subsampled.
//
// The pipeline is producer → bounded window → rank workers → shard writers:
//
//   - a single producer pulls snapshots from a SnapshotSource and
//     round-robins them to minimpi rank workers through bounded channels;
//     a window semaphore caps how many snapshots are in flight, which is
//     the pipeline's peak-RSS proxy (backpressure stalls the solver, it
//     never buffers unboundedly);
//   - phase 1 (hypercube selection) runs once on the first snapshot, exactly
//     as the offline pipeline runs it on snapshot 0, so streamed and offline
//     runs share the cube set;
//   - each worker runs phase 2 per snapshot with the offline per-snapshot
//     seeding, updates an online NDHistogram sketch of the selected
//     feature-space occupancy, and either appends results to its own .skl
//     shard (ShardPrefix), feeds a per-cube budgeted reservoir
//     (ReservoirBudget), or collects them in memory;
//   - the producer injects merge markers every MergeEvery snapshots (and
//     once at end-of-stream); on a marker every rank joins a collective
//     sketch merge over minimpi (dense Allreduce of the per-rank deltas), so
//     each rank's global sketch converges without any rank ever seeing the
//     full dataset.
//
// With ReservoirBudget == 0 the streamed selection is bit-identical to the
// offline sampling.SubsampleDataset result (asserted in tests); with a
// budget it becomes a streaming UIPS-style selector whose inverse-density
// weights come from the merged sketch.
//
// Who owns what on the per-snapshot path: each rank worker holds one
// sampling.CubeSampler for the whole run, whose scratch is reused for every
// cube of every snapshot the rank sees; the CubeSamples it returns own their
// slabs, so the in-memory mode retains them as they are and the shard
// appender encodes them through its own reused record buffer; a
// cubeReservoir owns one budget×(inputs+outputs) slab allocated with it, an
// offer copies the candidate's values into a slot (the evicted item's, once
// full) and allocates nothing, and the end-of-stream flush copies the
// survivors out into CubeSamples of their own. The per-rank sketch delta and
// the dense merge buffer are reset in place, never rebuilt.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/stats"
	"repro/pkg/api"
)

// Config sizes the streaming pipeline.
type Config struct {
	// Pipeline is the two-phase sampling configuration, shared verbatim
	// with the offline pipeline (same seeds → same selection).
	Pipeline sampling.PipelineConfig
	// Ranks is the number of minimpi worker ranks (default 1).
	Ranks int
	// Window caps in-flight snapshots (producer blocks when full);
	// default 2. This is the pipeline's memory budget knob.
	Window int
	// MergeEvery injects a collective sketch merge every N snapshots
	// (0 = merge only at end of stream).
	MergeEvery int
	// ReservoirBudget, when > 0, caps the samples kept per hypercube
	// across the whole stream via weighted reservoir sampling with
	// inverse-density weights from the merged sketch. 0 keeps every
	// per-snapshot selection (offline-parity mode). Each rank reserves the
	// budget up front: ReservoirBudget × (inputs + outputs) floats per
	// kept cube.
	ReservoirBudget int
	// ShardPrefix, when non-empty, streams results to per-rank
	// "<prefix>-rankNNN.skl" shards instead of holding them in memory.
	ShardPrefix string
	// Cost is the simulated interconnect model charged for the merges.
	Cost minimpi.CostModel
	// Metrics, when non-nil, receives stage-level pipeline metrics
	// (snapshots ingested, points selected, backpressure stalls, buffered
	// bytes, reservoir occupancy) under sickle_stream_* family names.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one trace per Run: a pipeline:run root
	// span with phase1:select, per-snapshot phase2:snapshot, and
	// merge:sketch child spans. The trace ID comes back in Result.TraceID.
	Tracer *obs.Tracer
	// Journal, when non-nil, receives a stall event per producer
	// backpressure stall, cross-linked to the run's trace ID.
	Journal *events.Journal
}

func (c *Config) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Window <= 0 {
		c.Window = 2
	}
}

// Result summarizes a streaming run.
type Result struct {
	// Cubes holds the selection when ShardPrefix is empty (in-memory
	// mode), ordered snapshot-major like the offline pipeline output.
	Cubes []sampling.CubeSample
	// Kept is the fixed phase-1 cube set.
	Kept []grid.Hypercube
	// Pipeline is the effective sampling configuration after cube-geometry
	// clamping against the reference snapshot — use it (not the input
	// config) to reproduce the run offline.
	Pipeline sampling.PipelineConfig
	// Snapshots is how many snapshots the stream carried.
	Snapshots int
	// Points is the total number of selected points.
	Points int
	// PeakBuffered is the high-water mark of simultaneously buffered
	// snapshots (always ≤ Window).
	PeakBuffered int
	// PeakBufferedBytes is the high-water mark of buffered snapshot
	// bytes — the pipeline's peak-RSS proxy.
	PeakBufferedBytes int64
	// MergeRounds counts the collective sketch merges performed.
	MergeRounds int
	// Stalls counts producer backpressure stalls (reserve found the window
	// full and had to wait); StallSeconds is their summed wait time.
	Stalls       int
	StallSeconds float64
	// TraceID identifies the run's trace when Config.Tracer was set.
	TraceID string
	// Sketch is the merged global occupancy sketch of the selected
	// features (its UniformityIndex is the selection-quality stat).
	Sketch *stats.NDHistogram
	// ShardPaths lists the shards written (sharded mode only).
	ShardPaths []string
	// Elapsed is the wall-clock pipeline time; SnapshotsPerSec the
	// resulting throughput.
	Elapsed         time.Duration
	SnapshotsPerSec float64
	// World exposes the minimpi world for sim-comm-cost queries.
	World *minimpi.World
}

// message is one unit of work handed to a rank worker: either a snapshot or
// a merge marker. The producer sends markers to every rank at the same
// stream position, so the collective merges stay aligned across ranks.
type message struct {
	f     *grid.Field
	snap  int
	bytes int64
	merge bool
}

// stageMetrics bundles the optional sickle_stream_* metric handles. All
// series handles are nil-safe no-ops when Config.Metrics is unset, so the
// instrumented paths never branch.
type stageMetrics struct {
	snapshots *obs.Counter
	points    *obs.Counter
	merges    *obs.Counter
	stalls    *obs.Counter
	stallSecs *obs.Counter
	buffered  *obs.Gauge
	bufBytes  *obs.Gauge
	snapSec   *obs.Histogram
	reservoir *obs.GaugeVec // per-rank reservoir occupancy
}

func newStageMetrics(reg *obs.Registry) *stageMetrics {
	ins := &stageMetrics{}
	if reg == nil {
		return ins
	}
	ins.snapshots = reg.Counter("sickle_stream_snapshots_total",
		"Snapshots ingested by the streaming pipeline.").With()
	ins.points = reg.Counter("sickle_stream_points_total",
		"Points selected by phase 2, before any reservoir reduction.").With()
	ins.merges = reg.Counter("sickle_stream_merge_rounds_total",
		"Collective sketch merge rounds performed.").With()
	ins.stalls = reg.Counter("sickle_stream_backpressure_stalls_total",
		"Producer stalls waiting for a free window slot.").With()
	ins.stallSecs = reg.Counter("sickle_stream_backpressure_stall_seconds_total",
		"Total seconds the producer spent stalled on the window.").With()
	ins.buffered = reg.Gauge("sickle_stream_buffered_snapshots",
		"Snapshots currently buffered in the window.").With()
	ins.bufBytes = reg.Gauge("sickle_stream_buffered_bytes",
		"Bytes of snapshot data currently buffered in the window.").With()
	ins.snapSec = reg.Histogram("sickle_stream_snapshot_seconds",
		"Per-snapshot phase-2 processing time in seconds.", nil).With()
	ins.reservoir = reg.Gauge("sickle_stream_reservoir_items",
		"Items currently held in a rank's per-cube reservoirs.", "rank")
	return ins
}

// windowTracker enforces the in-flight snapshot window and records the
// high-water marks reported in Result. A slot is reserved BEFORE the source
// materializes the next snapshot, so the snapshot in the producer's hand is
// counted: the reported peak is the true residency, not residency minus one.
type windowTracker struct {
	sem       chan struct{}
	ins       *stageMetrics
	journal   *events.Journal
	traceID   string
	mu        sync.Mutex
	cur, peak int
	curBytes  int64
	peakBytes int64
	stalls    int
	stallSecs float64
}

func newWindowTracker(window int, ins *stageMetrics, journal *events.Journal, traceID string) *windowTracker {
	return &windowTracker{sem: make(chan struct{}, window), ins: ins,
		journal: journal, traceID: traceID}
}

// reserve claims a window slot for a snapshot about to be produced. A full
// window means the samplers are behind the solver: the wait is counted as a
// backpressure stall so the imbalance is visible, not just implied by
// throughput.
func (t *windowTracker) reserve() {
	select {
	case t.sem <- struct{}{}:
	default:
		start := time.Now()
		t.sem <- struct{}{}
		wait := time.Since(start).Seconds()
		t.mu.Lock()
		t.stalls++
		t.stallSecs += wait
		t.mu.Unlock()
		t.ins.stalls.Inc()
		t.ins.stallSecs.Add(wait)
		t.journal.Emit(events.TypeStall, "producer stalled on backpressure", t.traceID,
			"seconds", strconv.FormatFloat(wait, 'g', 4, 64))
	}
	t.mu.Lock()
	t.cur++
	if t.cur > t.peak {
		t.peak = t.cur
	}
	cur := t.cur
	t.mu.Unlock()
	t.ins.buffered.Set(float64(cur))
}

// addBytes records the size of the snapshot that filled the reserved slot.
func (t *windowTracker) addBytes(bytes int64) {
	t.mu.Lock()
	t.curBytes += bytes
	if t.curBytes > t.peakBytes {
		t.peakBytes = t.curBytes
	}
	cur := t.curBytes
	t.mu.Unlock()
	t.ins.bufBytes.Set(float64(cur))
}

// cancel returns a reserved slot that never received a snapshot (EOF/error).
func (t *windowTracker) cancel() {
	t.mu.Lock()
	t.cur--
	cur := t.cur
	t.mu.Unlock()
	<-t.sem
	t.ins.buffered.Set(float64(cur))
}

func (t *windowTracker) release(bytes int64) {
	t.mu.Lock()
	t.cur--
	t.curBytes -= bytes
	cur, curBytes := t.cur, t.curBytes
	t.mu.Unlock()
	<-t.sem
	t.ins.buffered.Set(float64(cur))
	t.ins.bufBytes.Set(float64(curBytes))
}

// ShardPath returns the shard file for one rank under a prefix.
func ShardPath(prefix string, rank int) string {
	return fmt.Sprintf("%s-rank%03d.skl", prefix, rank)
}

// Run drives the in-situ pipeline over a snapshot source until io.EOF.
func Run(ctx context.Context, src SnapshotSource, cfg Config) (*Result, error) {
	cfg.defaults()
	meta := src.Meta()
	if len(meta.InputVars) == 0 {
		return nil, errors.New("stream: source declares no input variables")
	}
	ins := newStageMetrics(cfg.Metrics)
	tracer := cfg.Tracer
	// One trace per run. Without a tracer nothing of it is built: a span's
	// IDs and attr map cost allocations whether or not anybody records them.
	var tc api.TraceContext
	var rootSpanID string
	if tracer != nil {
		tc.TraceID, rootSpanID = api.NewTraceID(), api.NewSpanID()
		runStart := time.Now()
		defer func() {
			tracer.Record(obs.Span{
				TraceID: tc.TraceID, SpanID: rootSpanID, Name: "pipeline:run",
				Start: runStart, Seconds: time.Since(runStart).Seconds(),
			})
		}()
	}

	cs := &countingSource{src: src}
	tracker := newWindowTracker(cfg.Window, ins, cfg.Journal, tc.TraceID)
	tracker.reserve()
	f0, err := cs.next()
	if err != nil {
		if err == io.EOF {
			return nil, errors.New("stream: empty snapshot stream")
		}
		return nil, err
	}
	tracker.addBytes(f0.SizeBytes())

	// The one geometry rule, against the reference snapshot, so live sources
	// with modest grids just work and a replayed dataset selects the cubes
	// the offline CLI selects.
	pcfg := cfg.Pipeline
	pcfg.FitTo(f0)

	// Phase 1 once, on the reference snapshot — the fixed sensor regions
	// every streamed snapshot is sampled through.
	p1Start := time.Now()
	kept, err := sampling.SelectCubesForField(ctx, f0, meta.ClusterVar, pcfg)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		tracer.Record(obs.Span{
			TraceID: tc.TraceID, SpanID: api.NewSpanID(), ParentID: rootSpanID,
			Name: "phase1:select", Start: p1Start,
			Seconds: time.Since(p1Start).Seconds(),
			Attrs:   map[string]string{"cubes": strconv.Itoa(len(kept))},
		})
	}

	lo, hi := featureBounds(f0, meta.InputVars)
	bins, err := effectiveBins(sketchBins, len(meta.InputVars))
	if err != nil {
		return nil, err
	}

	chans := make([]chan message, cfg.Ranks)
	for r := range chans {
		chans[r] = make(chan message, cfg.Window+1)
	}

	var (
		prodErr     error
		snapTotal   int
		mergeRounds int
	)
	start := time.Now()
	go func() {
		defer func() {
			for _, ch := range chans {
				ch <- message{merge: true} // final end-of-stream merge
			}
			mergeRounds++
			ins.merges.Inc()
			for _, ch := range chans {
				close(ch)
			}
		}()
		emit := func(f *grid.Field, snap int) {
			chans[snap%cfg.Ranks] <- message{f: f, snap: snap, bytes: f.SizeBytes()}
			ins.snapshots.Inc()
		}
		emit(f0, 0) // its slot was reserved before phase 1 ran
		snapTotal = 1
		for {
			// Reserve before asking the source to materialize: the snapshot
			// being produced occupies real memory and must count against
			// the window.
			tracker.reserve()
			f, err := cs.next()
			if err == io.EOF {
				tracker.cancel()
				return
			}
			if err != nil {
				tracker.cancel()
				prodErr = err
				return
			}
			tracker.addBytes(f.SizeBytes())
			snap := snapTotal
			snapTotal++
			emit(f, snap)
			if cfg.MergeEvery > 0 && snapTotal%cfg.MergeEvery == 0 {
				for _, ch := range chans {
					ch <- message{merge: true}
				}
				mergeRounds++
				ins.merges.Inc()
			}
		}
	}()

	results := make([][]sampling.CubeSample, cfg.Ranks)
	reservoirsPerRank := make([]map[int]*cubeReservoir, cfg.Ranks)
	pointsPerRank := make([]int, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	var shardPaths []string
	if cfg.ShardPrefix != "" {
		// Remove stale shards under this prefix first: a previous run with
		// more ranks (or one that failed mid-stream) leaves files a
		// `<prefix>-rank*.skl` glob would silently union with this run's
		// output.
		if stale, gerr := filepath.Glob(cfg.ShardPrefix + "-rank*.skl"); gerr == nil {
			for _, p := range stale {
				os.Remove(p)
			}
		}
		shardPaths = make([]string, cfg.Ranks)
		for r := range shardPaths {
			shardPaths[r] = ShardPath(cfg.ShardPrefix, r)
		}
	}
	var mergedSketch *stats.NDHistogram

	world := minimpi.Run(cfg.Ranks, cfg.Cost, func(c *minimpi.Comm) {
		rank := c.Rank()
		delta := stats.NewNDHistogram(lo, hi, bins)
		global := stats.NewNDHistogram(lo, hi, bins)
		mergeBuf := make([]float64, delta.TotalCells())
		// One phase-2 handle and one key rng per worker, for the whole run:
		// their scratch is reused across this rank's snapshots.
		sampler, serr := sampling.NewCubeSampler(pcfg, meta.InputVars, meta.OutputVars, meta.ClusterVar)
		if serr != nil {
			errs[rank] = serr
		}
		keyRNG := rand.New(rand.NewSource(0))
		var (
			held     int // items across this rank's reservoirs
			resGauge *obs.Gauge
		)
		if cfg.ReservoirBudget > 0 && ins.reservoir != nil {
			resGauge = ins.reservoir.With(strconv.Itoa(rank))
		}
		var app *sickle.ShardAppender
		if cfg.ShardPrefix != "" && cfg.ReservoirBudget == 0 {
			// In reservoir mode the survivors are only known after the
			// cross-rank reservoir reduction; shards are written then.
			var aerr error
			app, aerr = sickle.OpenShardAppender(shardPaths[rank])
			if aerr != nil && errs[rank] == nil {
				errs[rank] = aerr
			}
		}
		reservoirs := map[int]*cubeReservoir{}

		for msg := range chans[rank] {
			if msg.merge {
				// Merges are collective: every rank must join even after a
				// local failure, or the others would deadlock in Allreduce.
				mergeStart := time.Now()
				mergeSketches(c, delta, global, mergeBuf)
				// One span per round, not per rank: rank 0 speaks for the
				// collective, whose members finish together anyway.
				if rank == 0 && tracer != nil {
					tracer.Record(obs.Span{
						TraceID: tc.TraceID, SpanID: api.NewSpanID(), ParentID: rootSpanID,
						Name: "merge:sketch", Start: mergeStart,
						Seconds: time.Since(mergeStart).Seconds(),
					})
				}
				continue
			}
			func() {
				defer tracker.release(msg.bytes)
				if errs[rank] != nil {
					return // keep draining so backpressure keeps moving
				}
				snapStart := time.Now()
				defer func() {
					elapsed := time.Since(snapStart).Seconds()
					ins.snapSec.Observe(elapsed)
					if tracer == nil {
						return
					}
					tracer.Record(obs.Span{
						TraceID: tc.TraceID, SpanID: api.NewSpanID(), ParentID: rootSpanID,
						Name: "phase2:snapshot", Start: snapStart, Seconds: elapsed,
						Attrs: map[string]string{
							"snap": strconv.Itoa(msg.snap),
							"rank": strconv.Itoa(rank),
						},
					})
				}()
				out, serr := sampler.SampleField(ctx, msg.f, msg.snap, kept)
				if serr != nil {
					errs[rank] = serr
					return
				}
				for i := range out {
					ins.points.Add(float64(len(out[i].LocalIdx)))
				}
				for i := range out {
					for _, row := range out[i].Features {
						delta.Add(row)
					}
				}
				switch {
				case cfg.ReservoirBudget > 0:
					keyRNG.Seed(keySeed(pcfg.Seed, msg.snap))
					held += offerToReservoirs(reservoirs, out, cfg.ReservoirBudget,
						keyRNG, global, delta)
					resGauge.Set(float64(held))
				case app != nil:
					if aerr := app.Append(out...); aerr != nil {
						errs[rank] = aerr
						return
					}
					for i := range out {
						pointsPerRank[rank] += len(out[i].LocalIdx)
					}
				default:
					// Safe to retain as they are: a CubeSample owns slabs
					// sized to its selected points, not to the cube.
					results[rank] = append(results[rank], out...)
					for i := range out {
						pointsPerRank[rank] += len(out[i].LocalIdx)
					}
				}
			}()
		}

		if cfg.ReservoirBudget > 0 {
			reservoirsPerRank[rank] = reservoirs
		}
		if app != nil {
			if cerr := app.Close(); cerr != nil && errs[rank] == nil {
				errs[rank] = cerr
			}
		}
		// Gather per-rank point counts (reservoir-held candidates in budget
		// mode, selected points otherwise) on rank 0, charging the cost
		// model for the same wrap-up communication the offline driver
		// performs.
		c.Gather(0, []float64{float64(pointsPerRank[rank] + held)})
		if rank == 0 {
			mergedSketch = global
		}
	})

	elapsed := time.Since(start)
	// A failed run must not leave valid-looking shards behind.
	cleanupShards := func() {
		for _, p := range shardPaths {
			os.Remove(p)
		}
	}
	if prodErr != nil {
		cleanupShards()
		return nil, prodErr
	}
	for r := 0; r < cfg.Ranks; r++ {
		if errs[r] != nil {
			cleanupShards()
			return nil, fmt.Errorf("stream: rank %d: %w", r, errs[r])
		}
	}

	res := &Result{
		Kept:              kept,
		Pipeline:          pcfg,
		Snapshots:         snapTotal,
		PeakBuffered:      tracker.peak,
		PeakBufferedBytes: tracker.peakBytes,
		MergeRounds:       mergeRounds,
		Stalls:            tracker.stalls,
		StallSeconds:      tracker.stallSecs,
		Sketch:            mergedSketch,
		ShardPaths:        shardPaths,
		Elapsed:           elapsed,
		World:             world,
	}
	if tracer != nil {
		res.TraceID = tc.TraceID
	}
	if elapsed > 0 {
		res.SnapshotsPerSec = float64(snapTotal) / elapsed.Seconds()
	}
	for _, p := range pointsPerRank {
		res.Points += p
	}
	if cfg.ReservoirBudget > 0 {
		// Cross-rank reservoir reduction: the global top-budget per cube is
		// always contained in the union of the per-rank top-budget sets, so
		// re-offering every survivor into a fresh reservoir recovers it.
		flushed := flushReservoirs(mergeRankReservoirs(reservoirsPerRank, cfg.ReservoirBudget))
		for i := range flushed {
			res.Points += len(flushed[i].LocalIdx)
		}
		if cfg.ShardPrefix == "" {
			res.Cubes = flushed
		} else if err := writeShards(shardPaths, flushed); err != nil {
			cleanupShards()
			return nil, err
		}
		return res, nil
	}
	if cfg.ShardPrefix == "" {
		for r := 0; r < cfg.Ranks; r++ {
			res.Cubes = append(res.Cubes, results[r]...)
		}
		sort.SliceStable(res.Cubes, func(a, b int) bool {
			if res.Cubes[a].Snapshot != res.Cubes[b].Snapshot {
				return res.Cubes[a].Snapshot < res.Cubes[b].Snapshot
			}
			return res.Cubes[a].Cube.ID < res.Cubes[b].Cube.ID
		})
	}
	return res, nil
}

// mergeRankReservoirs reduces the per-rank reservoirs to one global
// budgeted reservoir per cube by re-offering every locally-kept item.
func mergeRankReservoirs(perRank []map[int]*cubeReservoir, budget int) map[int]*cubeReservoir {
	merged := map[int]*cubeReservoir{}
	for _, rankRes := range perRank {
		for id, r := range rankRes {
			g, ok := merged[id]
			if !ok {
				g = newCubeReservoir(r.cube, budget, r.d, r.t)
				merged[id] = g
			}
			for _, it := range r.items {
				g.offer(it.key, it.snap, it.localIdx, r.features(it.slot), r.targets(it.slot))
			}
		}
	}
	return merged
}

// writeShards distributes finalized cube samples round-robin across the
// per-rank shard files.
func writeShards(paths []string, cubes []sampling.CubeSample) error {
	for r, path := range paths {
		a, err := sickle.OpenShardAppender(path)
		if err != nil {
			return err
		}
		for i := r; i < len(cubes); i += len(paths) {
			if err := a.Append(cubes[i]); err != nil {
				_ = a.Close() // the append error dominates
				return err
			}
		}
		if err := a.Close(); err != nil {
			return err
		}
	}
	return nil
}

// mergeSketches is the collective sketch merge: each rank contributes its
// unmerged delta as a dense vector, the Allreduce sums them, every rank
// folds the sum into its global sketch, and the delta resets in place. buf
// is the rank's dense buffer (delta.TotalCells() long, bounded by
// effectiveBins), reused for every merge of the run.
func mergeSketches(c *minimpi.Comm, delta, global *stats.NDHistogram, buf []float64) {
	clear(buf)
	for k := range delta.OccupiedCells() {
		cell, cnt := delta.Entry(k)
		buf[cell] = float64(cnt)
	}
	c.Allreduce(buf)
	for cell, v := range buf {
		if v > 0 {
			global.AddCell(cell, int(v+0.5))
		}
	}
	delta.Reset()
}

// offerToReservoirs feeds one snapshot's phase-2 selection into the per-cube
// budgeted reservoirs and returns how many items they gained. A reservoir
// copies what it keeps into its own slots, so out stays the caller's. The
// Exp(1) key draws come from rng, which the caller seeds per snapshot
// (keySeed, mirroring the offline per-snapshot seeding), and so are
// independent of rank layout, but the inverse-density weights read the
// rank's own sketch state, which does depend on which snapshots the rank
// has seen and how many merges have landed — reservoir selections are
// therefore reproducible for a fixed (seed, ranks, merge cadence) but only
// approximately invariant across rank counts. Only parity mode
// (ReservoirBudget == 0) is bit-exact.
func offerToReservoirs(reservoirs map[int]*cubeReservoir, out []sampling.CubeSample,
	budget int, rng *rand.Rand, global, delta *stats.NDHistogram) (grew int) {

	for i := range out {
		cs := &out[i]
		if len(cs.LocalIdx) == 0 {
			continue
		}
		r, ok := reservoirs[cs.Cube.ID]
		if !ok {
			r = newCubeReservoir(cs.Cube, budget, len(cs.Features[0]), len(cs.Targets[0]))
			reservoirs[cs.Cube.ID] = r
		}
		before := len(r.items)
		for p, li := range cs.LocalIdx {
			w := invDensityWeight(global, delta, cs.Features[p])
			r.offer(-rng.ExpFloat64()/w, cs.Snapshot, li, cs.Features[p], cs.Targets[p])
		}
		grew += len(r.items) - before
	}
	return grew
}
