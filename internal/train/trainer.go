package train

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/energy"
	"repro/internal/minimpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/pkg/api"
)

// Config mirrors the artifact's train.py options. The paper fixes the
// rest: Adam, a plateau schedule of patience 20 and factor 0.5
// (nn.PlateauScheduler), and a global gradient norm clipped to 5
// (clipNorm) before every step.
type Config struct {
	Epochs    int     // default 50
	Batch     int     // default 16 (paper's setting)
	LR        float64 // default 0.001 (paper's setting)
	Seed      int64
	Ranks     int // data-parallel ranks, default 1
	Meter     *energy.Meter
	CostModel minimpi.CostModel
	// Normalize standardizes inputs and targets from training statistics.
	Normalize bool
	Verbose   bool
	// Progress, when non-nil, is called after every completed epoch with
	// (epochsDone, totalEpochs) — the hook serve's job manager uses to
	// report training progress.
	Progress func(done, total int)
	// Metrics, when non-nil, receives sickle_train_* series: epoch/batch
	// timing histograms, the current epoch gauge, and live loss gauges.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one trace per Train call — a train:run
	// root span with a train:epoch child per epoch. When the caller's ctx
	// already carries a trace (a training job submitted over the API), the
	// spans join it instead of minting a fresh one.
	Tracer *obs.Tracer
}

// testFrac is the held-out share of the examples: the paper's 90:10 split.
const testFrac = 0.1

// clipNorm caps the global gradient norm before each step: it guards LSTM
// runs against the occasional exploding-gradient divergence.
const clipNorm float64 = 5

func (c *Config) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 50
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
}

// History records the training run.
type History struct {
	TrainLoss []float64
	TestLoss  []float64
	FinalLoss float64 // the artifact's "Evaluation on test set"
	Epochs    int
	Params    int
	// TraceID identifies the run's trace when Config.Tracer was set.
	TraceID string
}

// trainInstruments bundles the optional sickle_train_* metric handles;
// nil handles (no registry) no-op.
type trainInstruments struct {
	epochSec *obs.Histogram
	batchSec *obs.Histogram
	batches  *obs.Counter
	epoch    *obs.Gauge
	loss     *obs.Gauge
	testLoss *obs.Gauge
}

// epochBuckets span sub-second toy fits through multi-minute DNS epochs.
var epochBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

func newTrainInstruments(reg *obs.Registry) *trainInstruments {
	ins := &trainInstruments{}
	if reg == nil {
		return ins
	}
	ins.epochSec = reg.Histogram("sickle_train_epoch_seconds",
		"Wall-clock time per training epoch.", epochBuckets).With()
	ins.batchSec = reg.Histogram("sickle_train_batch_seconds",
		"Wall-clock time per optimizer step (one batch).", nil).With()
	ins.batches = reg.Counter("sickle_train_batches_total",
		"Optimizer steps taken.").With()
	ins.epoch = reg.Gauge("sickle_train_epoch",
		"Epochs completed in the current run.").With()
	ins.loss = reg.Gauge("sickle_train_loss",
		"Mean training loss of the last completed epoch.").With()
	ins.testLoss = reg.Gauge("sickle_train_test_loss",
		"Test-set loss after the last completed epoch.").With()
	return ins
}

// ModelFactory builds a fresh model replica from a seed; DDP requires
// identically initialized replicas per rank.
type ModelFactory func(rng *rand.Rand) Model

// chargeTraining applies the Eq. 3 training-cost model to the meter:
// flops ≈ 6·params per example-element pass (2 forward + 4 backward), and
// the batch's tensors move through memory once per pass.
func chargeTraining(m *energy.Meter, params, batchElems int) {
	if m == nil {
		return
	}
	m.AddFlops(int64(6) * int64(params) * int64(batchElems) / 64)
	m.AddBytes(int64(batchElems)*8*3 + int64(params)*8)
}

// Train fits a model on the examples. With cfg.Ranks > 1 it runs
// synchronous data-parallel training over minimpi: each rank owns an
// identically seeded replica, computes gradients on its shard of every
// batch, and gradients are averaged with Allreduce before each optimizer
// step — torch DistributedDataParallel's algorithm.
//
// The context is checked before every batch and every epoch; cancellation
// abandons the run and returns ctx.Err() (the partially trained model is
// not returned — a canceled run has no well-defined artifact).
func Train(ctx context.Context, factory ModelFactory, examples []Example, cfg Config) (Model, *History, error) {
	cfg.defaults()
	if len(examples) < 2 {
		return nil, nil, fmt.Errorf("train: need at least 2 examples, got %d", len(examples))
	}
	trainSet, testSet := SplitTrainTest(examples, testFrac, cfg.Seed)
	if cfg.Normalize {
		// Normalize copies: callers may reuse the same examples across
		// runs (replicates, hyperparameter search), so mutating their
		// tensors would silently re-normalize already-normalized data.
		trainSet = cloneExamples(trainSet)
		testSet = cloneExamples(testSet)
		normalizeExamples(trainSet, testSet)
	}

	models := make([]Model, cfg.Ranks)
	for r := range models {
		models[r] = factory(rand.New(rand.NewSource(cfg.Seed + 1)))
	}
	params := nn.ParamCount(models[0])

	opts := make([]*nn.Adam, cfg.Ranks)
	scheds := make([]*nn.PlateauScheduler, cfg.Ranks)
	for r := range opts {
		opts[r] = nn.NewAdam(cfg.LR)
		scheds[r] = nn.NewPlateauScheduler(opts[r])
	}

	hist := &History{Params: params}
	order := rand.New(rand.NewSource(cfg.Seed + 2))

	ins := newTrainInstruments(cfg.Metrics)
	tracer := cfg.Tracer
	// Join the caller's trace (training jobs submitted over the API carry
	// one) or mint a fresh one for standalone runs. Without a tracer nothing
	// is minted: IDs and attr maps cost allocations even when nobody records.
	var tc api.TraceContext
	var rootSpanID string
	if tracer != nil {
		var traced bool
		if tc, traced = api.TraceFrom(ctx); !traced {
			tc = api.TraceContext{TraceID: api.NewTraceID()}
		}
		rootSpanID = api.NewSpanID()
		hist.TraceID = tc.TraceID
		runStart := time.Now()
		defer func() {
			tracer.Record(obs.Span{
				TraceID: tc.TraceID, SpanID: rootSpanID, ParentID: tc.SpanID,
				Name: "train:run", Start: runStart,
				Seconds: time.Since(runStart).Seconds(),
				Attrs:   map[string]string{"params": strconv.Itoa(params)},
			})
		}()
	}

	batch := make([]Example, 0, cfg.Batch)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		epochStart := time.Now()
		perm := order.Perm(len(trainSet))
		epochLoss := 0.0
		nBatches := 0
		for b0 := 0; b0 < len(perm); b0 += cfg.Batch {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			b1 := b0 + cfg.Batch
			if b1 > len(perm) {
				b1 = len(perm)
			}
			batch = batch[:0]
			for _, p := range perm[b0:b1] {
				batch = append(batch, trainSet[p])
			}
			batchStart := time.Now()
			loss := trainBatch(models, opts, batch, cfg)
			ins.batchSec.Observe(time.Since(batchStart).Seconds())
			ins.batches.Inc()
			epochLoss += loss
			nBatches++
			chargeTraining(cfg.Meter, params, len(batch)*batch[0].Input.Len())
		}
		epochLoss /= float64(nBatches)
		testLoss := Evaluate(models[0], testSet)
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.TestLoss = append(hist.TestLoss, testLoss)
		for r := range scheds {
			scheds[r].Observe(testLoss)
		}
		elapsed := time.Since(epochStart).Seconds()
		ins.epochSec.Observe(elapsed)
		ins.epoch.Set(float64(epoch + 1))
		ins.loss.Set(epochLoss)
		ins.testLoss.Set(testLoss)
		if tracer != nil {
			tracer.Record(obs.Span{
				TraceID: tc.TraceID, SpanID: api.NewSpanID(), ParentID: rootSpanID,
				Name: "train:epoch", Start: epochStart, Seconds: elapsed,
				Attrs: map[string]string{
					"epoch":   strconv.Itoa(epoch),
					"batches": strconv.Itoa(nBatches),
				},
			})
		}
		if cfg.Verbose {
			// Stderr, not stdout: verbose progress is diagnostics, and a
			// library must not claim the process's stdout.
			fmt.Fprintf(os.Stderr, "epoch %3d  train %.6f  test %.6f  lr %.2g\n",
				epoch, epochLoss, testLoss, opts[0].LR)
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch+1, cfg.Epochs)
		}
	}
	hist.Epochs = cfg.Epochs
	hist.FinalLoss = Evaluate(models[0], testSet)
	return models[0], hist, nil
}

// trainBatch runs one synchronous step. Ranks shard the batch; each
// computes local gradients; Allreduce averages them; every rank applies the
// identical update. Every tensor of the step — the stacked batch, the loss
// gradient, the flat allreduce buffer — lives on the rank's own model.
func trainBatch(models []Model, opts []*nn.Adam, batch []Example, cfg Config) float64 {
	ranks := len(models)
	if ranks == 1 {
		m := models[0]
		nn.ZeroGrads(m)
		in, tgt := stackBatch(m, batch)
		pred := m.Forward(in)
		g := m.work().ws.New(pred.Shape...)
		loss := nn.MSELossInto(g, pred, tgt)
		m.Backward(g)
		nn.ClipGradNorm(m, clipNorm)
		opts[0].Step(m)
		return loss
	}

	losses := make([]float64, ranks)
	minimpi.Run(ranks, cfg.CostModel, func(c *minimpi.Comm) {
		r := c.Rank()
		m := models[r]
		ws := &m.work().ws
		nn.ZeroGrads(m)
		lo, hi := c.PartitionRange(len(batch))
		var localLoss float64
		if n := hi - lo; n == 0 {
			ws.Reset() // an empty shard runs no Forward to do it
		} else {
			in, tgt := stackBatch(m, batch[lo:hi])
			pred := m.Forward(in)
			g := ws.New(pred.Shape...)
			loss := nn.MSELossInto(g, pred, tgt)
			// Scale so the allreduced average equals the full-batch
			// gradient: local grads are means over the shard.
			localLoss = loss * float64(n)
			m.Backward(g)
			for _, p := range m.Params() {
				p.Grad.Scale(float64(n))
			}
		}
		// Flatten all gradients into one buffer for a single Allreduce,
		// as DDP's gradient bucketing does; the loss rides in the last
		// cell.
		flat := ws.New(nn.ParamCount(m) + 1).Data
		off := 0
		for _, p := range m.Params() {
			off += copy(flat[off:], p.Grad.Data)
		}
		flat[off] = localLoss
		c.Allreduce(flat)
		inv := 1 / float64(len(batch))
		off = 0
		for _, p := range m.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = flat[off+i] * inv
			}
			off += p.Grad.Len()
		}
		losses[r] = flat[off] * inv
		nn.ClipGradNorm(m, clipNorm)
		opts[r].Step(m)
	})
	return losses[0]
}

// Evaluate returns the MSE of the model over a set (batch of all examples).
func Evaluate(m Model, set []Example) float64 {
	if len(set) == 0 {
		return 0
	}
	in, tgt := stackBatch(m, set)
	pred := m.Forward(in)
	return nn.MSELossInto(m.work().ws.New(pred.Shape...), pred, tgt)
}

func cloneExamples(set []Example) []Example {
	out := make([]Example, len(set))
	for i, ex := range set {
		out[i] = Example{Input: ex.Input.Clone(), Target: ex.Target.Clone()}
	}
	return out
}

// normalizeExamples standardizes inputs and targets in place using
// statistics of the training inputs/targets (applied to both sets).
func normalizeExamples(trainSet, testSet []Example) {
	stats := func(get func(Example) *tensor.Tensor) (mean, std float64) {
		var s, s2 float64
		var n int
		for _, ex := range trainSet {
			for _, v := range get(ex).Data {
				s += v
				s2 += v * v
				n++
			}
		}
		mean = s / float64(n)
		variance := s2/float64(n) - mean*mean
		if variance <= 0 {
			return mean, 1
		}
		return mean, mSqrt(variance)
	}
	apply := func(get func(Example) *tensor.Tensor, mean, std float64) {
		for _, set := range [][]Example{trainSet, testSet} {
			for _, ex := range set {
				t := get(ex)
				for i := range t.Data {
					t.Data[i] = (t.Data[i] - mean) / std
				}
			}
		}
	}
	im, is := stats(func(e Example) *tensor.Tensor { return e.Input })
	apply(func(e Example) *tensor.Tensor { return e.Input }, im, is)
	tm, ts := stats(func(e Example) *tensor.Tensor { return e.Target })
	apply(func(e Example) *tensor.Tensor { return e.Target }, tm, ts)
}
