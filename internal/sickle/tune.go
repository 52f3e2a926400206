package sickle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/sampling"
)

// The search space and budget of Tune. Random search is the standard
// strong baseline DeepHyper's Bayesian strategies are measured against.
const (
	tuneTrials    = 6
	tuneSurvivors = 2
	tuneLRMin     = 1e-4 // learning rates are drawn log-uniform in [min, max)
	tuneLRMax     = 1e-2
)

var (
	tuneHidden = [...]int{8, 16, 32}
	tuneBatch  = [...]int{4, 8, 16}
)

// Trial is one hyperparameter configuration of a Tune search and the test
// loss it reached after Epochs epochs.
type Trial struct {
	LR     float64
	Hidden int
	Batch  int
	Loss   float64
	Epochs int
}

// String formats the trial as sickle-train prints its winner.
func (t Trial) String() string {
	return fmt.Sprintf("lr=%.2g hidden=%d batch=%d loss=%.6f (%d epochs)", t.LR, t.Hidden, t.Batch, t.Loss, t.Epochs)
}

// Tune is the paper's --tune stage, the DeepHyper analogue: a random search
// over learning rate, batch size and Arch.Hidden (the LSTM's hidden size,
// the transformers' model width) with successive-halving early stopping,
// on cubes that already exist. Each trial is Fit on a copy of l with the
// trial's hyperparameters: the same seed, normalisation and layout, one
// training rank, and none of l.Train's Meter, Metrics, Tracer, Progress or
// Verbose. The trials themselves spread over Train.Ranks minimpi ranks.
//
// Every trial is screened for screen epochs; the best tuneSurvivors train
// again for final epochs and are ranked among themselves alone, so the
// winner is compared only with learners run on its budget (Cheng &
// Greiner, arXiv 1301.6684). Both rungs follow Train.Epochs (see rungs).
// Tune returns l with the winner's LR, batch and hidden width, and every
// trial: the survivors best first, then the rest best first.
func (l Loop) Tune(ctx context.Context, d *grid.Dataset, cubes []sampling.CubeSample) (Loop, []Trial, error) {
	screen, final := rungs(l.Train.Epochs)
	rng := rand.New(rand.NewSource(l.Train.Seed))
	trials := make([]Trial, tuneTrials)
	for i := range trials {
		u := rng.Float64()
		trials[i] = Trial{
			LR:     math.Exp(math.Log(tuneLRMin) + u*(math.Log(tuneLRMax)-math.Log(tuneLRMin))),
			Hidden: tuneHidden[rng.Intn(len(tuneHidden))],
			Batch:  tuneBatch[rng.Intn(len(tuneBatch))],
		}
	}
	if err := l.evaluate(ctx, d, cubes, trials, screen); err != nil {
		return l, nil, err
	}
	byLoss(trials)
	survivors := trials[:tuneSurvivors]
	if err := l.evaluate(ctx, d, cubes, survivors, final); err != nil {
		return l, nil, err
	}
	byLoss(survivors)
	return l.with(trials[0]), trials, nil
}

// rungs derives Tune's budgets from the epochs the caller trains for:
// survivors get half of them (at least one), screening at most three.
func rungs(epochs int) (screen, final int) {
	final = max(1, epochs/2)
	return min(3, final), final
}

// with is l under t's hyperparameters.
func (l Loop) with(t Trial) Loop {
	l.Train.LR, l.Train.Batch, l.Arch.Hidden = t.LR, t.Batch, t.Hidden
	return l
}

// evaluate fits every trial of ts for the given epochs, recording its test
// loss, with the trials spread over Train.Ranks ranks.
func (l Loop) evaluate(ctx context.Context, d *grid.Dataset, cubes []sampling.CubeSample, ts []Trial, epochs int) error {
	errs := make([]error, max(1, l.Train.Ranks))
	minimpi.Run(len(errs), minimpi.CostModel{}, func(c *minimpi.Comm) {
		lo, hi := c.PartitionRange(len(ts))
		for i := lo; i < hi; i++ {
			trial := l.with(ts[i])
			trial.Pipeline.Meter = nil
			trial.Train.Epochs, trial.Train.Ranks = epochs, 1
			trial.Train.Meter, trial.Train.Metrics, trial.Train.Tracer = nil, nil, nil
			trial.Train.Progress, trial.Train.Verbose = nil, false
			res, err := trial.Fit(ctx, d, cubes)
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			ts[i].Loss, ts[i].Epochs = res.History.FinalLoss, epochs
		}
	})
	return errors.Join(errs...)
}

// byLoss orders trials best first.
func byLoss(ts []Trial) {
	sort.SliceStable(ts, func(a, b int) bool { return ts[a].Loss < ts[b].Loss })
}
