package train

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTrainStepAllocs is what fails when allocation churn comes back into
// the trainer: after two warm-up steps (a full batch, then a ragged one, so
// every workspace slot has seen its largest request), one optimizer step of
// each architecture allocates at most 100 objects and one Evaluate at most
// 40 — with the kernel pool on, where each kernel that fans out costs its
// closure, and serially.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tensor.SetWorkers(4) // a real pool even on a single-core machine
	defer tensor.SetWorkers(0)
	defer tensor.SetParallel(true)
	for _, arch := range goldenArchs {
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
			if step > 100 {
				t.Errorf("%s parallel=%v: a train step allocates %v objects, want at most 100", arch.name, parallel, step)
			}
			if eval > 40 {
				t.Errorf("%s parallel=%v: Evaluate allocates %v objects, want at most 40", arch.name, parallel, eval)
			}
			if !parallel && (step != 0 || eval != 0) {
				t.Errorf("%s: serially a step allocates %v objects and Evaluate %v, want 0 and 0", arch.name, step, eval)
			}
		}
	}
}
