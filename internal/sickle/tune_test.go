package sickle

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/train"
)

// of2dLSTM is sickle-train's LSTM run on OF2D: the whole plane, one cube,
// maxent points, and the cubes it selects.
func of2dLSTM(t *testing.T) (Loop, *grid.Dataset, []sampling.CubeSample) {
	t.Helper()
	d, err := BuildDataset("OF2D", Small)
	if err != nil {
		t.Fatal(err)
	}
	f := d.Snapshots[0]
	l := Loop{
		Pipeline: sampling.PipelineConfig{Hypercubes: "maxent", Method: "maxent", NumHypercubes: 1,
			CubeSx: f.Nx, CubeSy: f.Ny, CubeSz: 1, NumClusters: 5, Seed: 1, Meter: energy.NewMeter()},
		Arch:  train.ArchSpec{Arch: "lstm", Hidden: 16},
		Train: train.Config{Epochs: 8, Normalize: true},
	}
	cubes, err := l.Subsample(t.Context(), d)
	if err != nil {
		t.Fatal(err)
	}
	return l, d, cubes
}

// TestLoopTuneRanksTheFinalRung: every trial is drawn from the search
// space; the winner is a survivor that ran the final rung, ranked only
// against the other survivors, and the screened-only rest follow best
// first; the Loop Tune returns trains the winner's hidden width, LR and
// batch for the caller's epochs.
func TestLoopTuneRanksTheFinalRung(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a search per seed")
	}
	base, d, cubes := of2dLSTM(t)
	screen, final := rungs(base.Train.Epochs)
	lstmParams := func(hidden int) int {
		return nn.ParamCount(train.NewLSTMModel(rand.New(rand.NewSource(0)), 2*len(d.InputVars), hidden, 1))
	}
	for seed := int64(1); seed <= 3; seed++ {
		l := base
		l.Train.Seed = seed
		won, trials, err := l.Tune(t.Context(), d, cubes)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) != tuneTrials {
			t.Fatalf("seed %d: %d trials, want %d", seed, len(trials), tuneTrials)
		}
		w := trials[0]
		for i, tr := range trials {
			if tr.LR < tuneLRMin || tr.LR >= tuneLRMax {
				t.Fatalf("seed %d: trial %v has LR outside [%g, %g)", seed, tr, tuneLRMin, tuneLRMax)
			}
			if !slices.Contains(tuneHidden[:], tr.Hidden) || !slices.Contains(tuneBatch[:], tr.Batch) {
				t.Fatalf("seed %d: trial %v is outside hidden %v, batch %v", seed, tr, tuneHidden, tuneBatch)
			}
			want := screen
			if i < tuneSurvivors {
				want = final
			}
			if tr.Epochs != want {
				t.Fatalf("seed %d: trial %d (%v) ran %d epochs, want %d", seed, i, tr, tr.Epochs, want)
			}
			if i < tuneSurvivors && tr.Loss < w.Loss {
				t.Fatalf("seed %d: survivor %v beats the winner %v", seed, tr, w)
			}
		}
		if rest := trials[tuneSurvivors:]; !sort.SliceIsSorted(rest, func(a, b int) bool { return rest[a].Loss < rest[b].Loss }) {
			t.Fatalf("seed %d: screened trials are not best first: %v", seed, rest)
		}
		if won.Train.LR != w.LR || won.Train.Batch != w.Batch || won.Arch.Hidden != w.Hidden ||
			won.Train.Epochs != base.Train.Epochs || won.Train.Seed != seed {
			t.Fatalf("seed %d: Tune returned %+v, %+v for the winner %v", seed, won.Train, won.Arch, w)
		}
		res, err := won.Fit(t.Context(), d, cubes)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.History.Params, lstmParams(w.Hidden); got != want {
			t.Fatalf("seed %d: the winner's LSTM has %d parameters, want %d (hidden %d)", seed, got, want, w.Hidden)
		}
		// A loop with another width trains another model, so the check
		// above tells a dropped width whichever width the seed picks.
		other := won
		other.Arch.Hidden, other.Train.Epochs = 2*w.Hidden, 1
		ores, err := other.Fit(t.Context(), d, cubes)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ores.History.Params, lstmParams(other.Arch.Hidden); got != want || got == res.History.Params {
			t.Fatalf("seed %d: hidden %d fits %d parameters, want %d (the winner's %d)",
				seed, other.Arch.Hidden, got, want, res.History.Params)
		}
	}
}

// TestLoopTuneParallelRanks: spreading the trials over two ranks returns
// the one-rank trials bit for bit.
func TestLoopTuneParallelRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a search twice")
	}
	l, d, cubes := of2dLSTM(t)
	l.Train.Seed = 4
	_, trials, err := l.Tune(t.Context(), d, cubes)
	if err != nil {
		t.Fatal(err)
	}
	l.Train.Ranks = 2
	_, spread, err := l.Tune(t.Context(), d, cubes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spread, trials) {
		t.Fatalf("two ranks: %v\none rank: %v", spread, trials)
	}
}

// TestLoopTuneDeterministicUnderSeed: two searches under one seed return
// the same trials bit for bit, and each trial is one-rank train.Train on
// the Loop's examples under its hyperparameters and the Loop's seed.
func TestLoopTuneDeterministicUnderSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a search twice")
	}
	l, d, cubes := of2dLSTM(t)
	l.Train.Seed = 4
	_, trials, err := l.Tune(t.Context(), d, cubes)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := l.Tune(t.Context(), d, cubes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, trials) {
		t.Fatalf("second search: %v\nfirst search: %v", again, trials)
	}
	spec := l.Arch.SizedFor(d, cubes[0].Cube.Sx)
	ex, err := spec.Examples(d, cubes, l.Window)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		spec.Hidden = tr.Hidden
		_, hist, err := train.Train(t.Context(), spec.Factory(), ex, train.Config{
			Epochs: tr.Epochs, Batch: tr.Batch, LR: tr.LR, Seed: l.Train.Seed, Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(hist.FinalLoss) != math.Float64bits(tr.Loss) {
			t.Fatalf("trial %v: train.Train reaches %x, the trial %x", tr, hist.FinalLoss, tr.Loss)
		}
	}
}

// TestTuneRungs: the survivors train for half the caller's epochs (at
// least one) and screening for at most three; sickle-train's default of 20
// epochs keeps rungs of 3 and 10.
func TestTuneRungs(t *testing.T) {
	for _, tc := range []struct{ epochs, screen, final int }{
		{0, 1, 1}, {1, 1, 1}, {2, 1, 1}, {4, 2, 2}, {6, 3, 3}, {8, 3, 4}, {20, 3, 10},
	} {
		if s, f := rungs(tc.epochs); s != tc.screen || f != tc.final {
			t.Errorf("rungs(%d) = %d, %d; want %d, %d", tc.epochs, s, f, tc.screen, tc.final)
		}
	}
}

func TestTrialString(t *testing.T) {
	s := Trial{LR: 0.001, Hidden: 16, Batch: 8, Loss: 0.5, Epochs: 10}.String()
	if s != "lr=0.001 hidden=16 batch=8 loss=0.500000 (10 epochs)" {
		t.Fatalf("Trial.String = %q", s)
	}
}
