package train

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// synthExamples builds deterministic [T, N, C] → cube examples of N points
// for the MLP-Transformer, exercising Linear, attention, LayerNorm and
// ConvTranspose3D in one stack.
func synthExamples(n, points int) []Example {
	rng := rand.New(rand.NewSource(42))
	ex := make([]Example, n)
	for i := range ex {
		ex[i] = Example{
			Input:  tensor.Randn(rng, 1, 2, points, 3),
			Target: tensor.Randn(rng, 1, 2, 1, 4, 4, 4),
		}
	}
	return ex
}

// The parity runs' MLP-Transformer is 32 wide and reads 64 points, so a
// batch of 4 takes the encoder's second layer through a [512, 32]·[32, 32]
// matmul: 2^19 multiply-adds, which the fan-out rule splits in 16.
const parityWidth, parityPoints = 32, 64

func parityFactory(rng *rand.Rand) Model { return NewMLPTransformer(rng, 3, parityWidth, 2, 1, 4) }

func runTraining(t *testing.T) (Model, *History) {
	t.Helper()
	m, hist, err := Train(context.Background(), parityFactory, synthExamples(24, parityPoints), Config{
		Epochs: 5, Batch: 4, Seed: 7, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, hist
}

// TestTrainingBitIdenticalSerialVsParallel runs the same 5-epoch training
// job with the kernel pool enabled and disabled and asserts every epoch
// loss and every final weight agrees bit for bit — the end-to-end version
// of the kernel parity contract, covering forward, backward, clipping,
// Adam, and the workspace reuse in one sweep.
func TestTrainingBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	fannedOut := pooltest.FannedOut(t, tensor.DefaultPool)
	mPar, histPar := runTraining(t)
	fannedOut()
	tensor.SetParallel(false)
	defer tensor.SetParallel(true)
	mSer, histSer := runTraining(t)

	for e := range histPar.TrainLoss {
		if math.Float64bits(histPar.TrainLoss[e]) != math.Float64bits(histSer.TrainLoss[e]) {
			t.Fatalf("epoch %d train loss differs: %v vs %v",
				e, histPar.TrainLoss[e], histSer.TrainLoss[e])
		}
		if math.Float64bits(histPar.TestLoss[e]) != math.Float64bits(histSer.TestLoss[e]) {
			t.Fatalf("epoch %d test loss differs: %v vs %v",
				e, histPar.TestLoss[e], histSer.TestLoss[e])
		}
	}
	pp, ps := mPar.(nn.Module).Params(), mSer.(nn.Module).Params()
	if len(pp) != len(ps) {
		t.Fatalf("param count differs: %d vs %d", len(pp), len(ps))
	}
	for i := range pp {
		for j := range pp[i].W.Data {
			if math.Float64bits(pp[i].W.Data[j]) != math.Float64bits(ps[i].W.Data[j]) {
				t.Fatalf("param %s[%d] differs: %v vs %v",
					pp[i].Name, j, pp[i].W.Data[j], ps[i].W.Data[j])
			}
		}
	}
}

// TestTrainingDDPBitIdenticalSerialVsParallel repeats the check for the
// multi-rank (minimpi allreduce) path, where every rank goroutine works on
// its own model's workspace.
func TestTrainingDDPBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	run := func() *History {
		_, hist, err := Train(context.Background(), parityFactory, synthExamples(16, parityPoints), Config{
			Epochs: 2, Batch: 4, Seed: 7, Ranks: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	fannedOut := pooltest.FannedOut(t, tensor.DefaultPool)
	histPar := run()
	fannedOut()
	tensor.SetParallel(false)
	defer tensor.SetParallel(true)
	histSer := run()
	for e := range histPar.TrainLoss {
		if math.Float64bits(histPar.TrainLoss[e]) != math.Float64bits(histSer.TrainLoss[e]) {
			t.Fatalf("DDP epoch %d loss differs: %v vs %v",
				e, histPar.TrainLoss[e], histSer.TrainLoss[e])
		}
	}
}

// BenchmarkTrainStep measures one optimizer step (stack, forward, MSE,
// backward, clip, Adam) on the MLP-Transformer. What fails when allocation
// churn comes back is TestTrainStepAllocs, not this report.
func BenchmarkTrainStep(b *testing.B) {
	models := []Model{NewMLPTransformer(rand.New(rand.NewSource(1)), 3, 8, 2, 1, 4)}
	opts := []*nn.Adam{nn.NewAdam(1e-3)}
	ex := synthExamples(8, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainBatch(models, opts, ex, Config{})
	}
}
