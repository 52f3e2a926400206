package train

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTrainStepAllocs is what fails when allocation churn comes back into
// the trainer: after two warm-up steps (a full batch, then a ragged one, so
// every workspace slot has seen its largest request), one optimizer step
// and one Evaluate of each architecture allocate nothing serially, and
// with the kernel pool on at most one object per kernel call that splits
// (its closure: jobs come back to the pool's free list, whichever goroutine
// lets go of them last). At the golden shapes the fan-out rule keeps
// nearly every kernel on the caller; the parity runs' MLP-Transformer (the
// /split entry) takes its encoder through 2^20 multiply-adds a step.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tensor.SetWorkers(4) // a real pool even on a single-core machine
	defer tensor.SetWorkers(0)
	defer tensor.SetParallel(true)
	split := goldenArchs[1]
	split.name, split.factory, split.in = "MLP_Transformer/split", parityFactory, []int{2, parityPoints, 3}
	for _, arch := range append(goldenArchs[:len(goldenArchs):len(goldenArchs)], split) {
		splits, ok := stepSplits[arch.name]
		if !ok {
			t.Fatalf("%s has no count of split kernel calls", arch.name)
		}
		for _, parallel := range []bool{true, false} {
			tensor.SetParallel(parallel)
			models := []Model{arch.factory(rand.New(rand.NewSource(1)))}
			opts := []*nn.Adam{nn.NewAdam(1e-3)}
			ex := goldenExamples(8, arch.in, arch.target)
			cfg := Config{}
			trainBatch(models, opts, ex, cfg)
			trainBatch(models, opts, ex[:7], cfg)
			Evaluate(models[0], ex[:2])

			step := testing.AllocsPerRun(10, func() { trainBatch(models, opts, ex, cfg) })
			eval := testing.AllocsPerRun(10, func() { Evaluate(models[0], ex[:2]) })
			t.Logf("%s parallel=%v: %v objects per step, %v per Evaluate", arch.name, parallel, step, eval)
			want := splits
			if !parallel {
				want = [2]float64{0, 0}
			}
			if step > want[0] || eval > want[1] {
				t.Errorf("%s parallel=%v: a train step allocates %v objects and Evaluate %v, want at most %v and %v",
					arch.name, parallel, step, eval, want[0], want[1])
			}
		}
	}
}

// stepSplits counts the kernel calls that the fan-out rule splits in one
// train step and in one Evaluate of each architecture.
var stepSplits = map[string][2]float64{
	"LSTM":                  {0, 0},
	"MLP_Transformer":       {0, 0},
	"CNN_Transformer":       {3, 0},
	"MATEY":                 {2, 0},
	"MLP_Transformer/split": {6, 1},
}
