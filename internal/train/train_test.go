package train

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfd3d"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// mseLoss is the allocating form of nn.MSELossInto.
func mseLoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape...)
	return nn.MSELossInto(grad, pred, target), grad
}

func TestLSTMModelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewLSTMModel(rng, 4, 8, 1)
	x := tensor.Randn(rng, 1, 3, 5, 4) // [B=3,T=5,C=4]
	y := m.Forward(x)
	if y.Dim(0) != 3 || y.Dim(1) != 1 {
		t.Fatalf("LSTM output shape %v, want [3 1]", y.Shape)
	}
	_, g := mseLoss(y, tensor.Randn(rng, 1, 3, 1))
	m.Backward(g) // must not panic; grads accumulate
	if nn.GradNorm(m) == 0 {
		t.Fatal("no gradients accumulated")
	}
}

// TestTable2Shapes verifies the I/O contract of all three architectures as
// listed in the paper's Table 2.
func TestTable2Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := 8

	// MLP-Transformer: [B, T, N, C] -> [B, T, C', G, G, G].
	mt := NewMLPTransformer(rng, 3, 16, 2, 1, g)
	x := tensor.Randn(rng, 1, 2, 2, 10, 3)
	y := mt.Forward(x)
	want := []int{2, 2, 1, g, g, g}
	for i, w := range want {
		if y.Dim(i) != w {
			t.Fatalf("MLP-Transformer shape %v, want %v", y.Shape, want)
		}
	}
	_, gr := mseLoss(y, tensor.Randn(rng, 1, want...))
	mt.Backward(gr)
	if nn.GradNorm(mt) == 0 {
		t.Fatal("MLP-Transformer: no grads")
	}

	// CNN-Transformer: [B, T, C, G, G, G] -> [B, T, C', G, G, G].
	ct := NewCNNTransformer(rng, 2, 16, 2, 1, g)
	x2 := tensor.Randn(rng, 1, 2, 2, 2, g, g, g)
	y2 := ct.Forward(x2)
	want2 := []int{2, 2, 1, g, g, g}
	for i, w := range want2 {
		if y2.Dim(i) != w {
			t.Fatalf("CNN-Transformer shape %v, want %v", y2.Shape, want2)
		}
	}
	_, gr2 := mseLoss(y2, tensor.Randn(rng, 1, want2...))
	ct.Backward(gr2)
	if nn.GradNorm(ct) == 0 {
		t.Fatal("CNN-Transformer: no grads")
	}

	// MATEY: same dense contract.
	ma := NewMATEYModel(rng, 2, 16, 2, 1, g)
	y3 := ma.Forward(x2)
	for i, w := range want2 {
		if y3.Dim(i) != w {
			t.Fatalf("MATEY shape %v, want %v", y3.Shape, want2)
		}
	}
	_, gr3 := mseLoss(y3, tensor.Randn(rng, 1, want2...))
	ma.Backward(gr3)
	if nn.GradNorm(ma) == 0 {
		t.Fatal("MATEY: no grads")
	}
}

// syntheticRegression builds examples with a learnable linear structure.
func syntheticRegression(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		in := tensor.Randn(rng, 1, 3, 2) // [T=3, C=2]
		s := 0.0
		for _, v := range in.Data {
			s += v
		}
		out[i] = Example{Input: in, Target: tensor.FromSlice([]float64{s / 6}, 1)}
	}
	return out
}

func TestTrainLSTMReducesLoss(t *testing.T) {
	ex := syntheticRegression(80, 3)
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 8, 1) }
	_, hist, err := Train(context.Background(), factory, ex, Config{Epochs: 40, Batch: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if !(last < first*0.5) {
		t.Fatalf("training failed to reduce loss: %v -> %v", first, last)
	}
	if hist.FinalLoss <= 0 && hist.FinalLoss != 0 {
		t.Fatalf("bad final loss %v", hist.FinalLoss)
	}
	if hist.Params == 0 {
		t.Fatal("param count missing")
	}
}

func TestDDPMatchesSerial(t *testing.T) {
	ex := syntheticRegression(40, 5)
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 6, 1) }
	_, serial, err := Train(context.Background(), factory, ex, Config{Epochs: 5, Batch: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, ddp, err := Train(context.Background(), factory, ex, Config{Epochs: 5, Batch: 8, Seed: 6, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.TrainLoss {
		if math.Abs(serial.TrainLoss[i]-ddp.TrainLoss[i]) > 1e-6*(1+math.Abs(serial.TrainLoss[i])) {
			t.Fatalf("epoch %d: serial %v vs ddp %v", i, serial.TrainLoss[i], ddp.TrainLoss[i])
		}
	}
}

func TestTrainChargesEnergy(t *testing.T) {
	ex := syntheticRegression(20, 7)
	m := energy.NewMeter()
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 4, 1) }
	if _, _, err := Train(context.Background(), factory, ex, Config{Epochs: 2, Batch: 8, Seed: 8, Meter: m}); err != nil {
		t.Fatal(err)
	}
	if m.Joules() <= 0 {
		t.Fatal("training charged no energy")
	}
}

func TestTrainTooFewExamples(t *testing.T) {
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 4, 1) }
	if _, _, err := Train(context.Background(), factory, syntheticRegression(1, 9), Config{}); err == nil {
		t.Fatal("expected error for 1 example")
	}
}

func TestSplitTrainTest(t *testing.T) {
	ex := syntheticRegression(100, 10)
	tr, te := SplitTrainTest(ex, 0.1, 1)
	if len(te) != 10 || len(tr) != 90 {
		t.Fatalf("split %d/%d, want 90/10", len(tr), len(te))
	}
	// Deterministic under seed.
	tr2, _ := SplitTrainTest(ex, 0.1, 1)
	if tr[0].Input != tr2[0].Input {
		t.Fatal("split not deterministic")
	}
}

// pipelineDataset builds a small SST-like trajectory plus cube samples.
func pipelineDataset(t testing.TB, method string) (*grid.Dataset, []sampling.CubeSample) {
	t.Helper()
	d := cfd3d.EvolveDataset("SST-P1F4-mini", 4, 1, cfd3d.Config{N: 16, Seed: 11})
	cfg := sampling.PipelineConfig{
		Hypercubes: "random", Method: method,
		NumHypercubes: 2, NumSamples: 40,
		CubeSx: 8, CubeSy: 8, CubeSz: 8, NumClusters: 4, Seed: 12,
	}
	cubes, err := sampling.SubsampleDataset(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, cubes
}

func TestBuildSampleFull(t *testing.T) {
	d, cubes := pipelineDataset(t, "maxent")
	ex, err := BuildSampleFull(d, cubes, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 cubes × (4-2+1) windows = 6 examples.
	if len(ex) != 6 {
		t.Fatalf("built %d examples, want 6", len(ex))
	}
	in := ex[0].Input
	if in.Dim(0) != 2 || in.Dim(1) != 40 || in.Dim(2) != len(d.InputVars) {
		t.Fatalf("input shape %v", in.Shape)
	}
	// One dense output cube per window snapshot, as the model predicts.
	tgt := ex[0].Target
	if tgt.Dim(0) != 2 || tgt.Dim(1) != 1 || tgt.Dim(2) != 8 {
		t.Fatalf("target shape %v", tgt.Shape)
	}
}

func TestBuildFullFull(t *testing.T) {
	d, cubes := pipelineDataset(t, "full")
	ex, err := BuildFullFull(d, cubes, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := ex[0].Input
	if in.Dim(0) != 1 || in.Dim(1) != len(d.InputVars) || in.Dim(2) != 8 {
		t.Fatalf("input shape %v", in.Shape)
	}
}

// TestBuildExamplesDeterministic: the example builders group samples per
// cube in a map; the example order — and with it the 90:10 split and every
// loss — must come from the sorted cube IDs, not from the map. Twenty
// builds of the same samples give the same sequence, in ascending cube
// order, and train to the same FinalLoss bit for bit.
func TestBuildExamplesDeterministic(t *testing.T) {
	d := cfd3d.EvolveDataset("SST-P1F4-mini", 3, 1, cfd3d.Config{N: 16, Seed: 11})
	for _, tc := range []struct {
		method string
		build  func(*grid.Dataset, []sampling.CubeSample, int) ([]Example, error)
	}{{"maxent", BuildSampleFull}, {"full", BuildFullFull}} {
		cubes, err := sampling.SubsampleDataset(context.Background(), d, sampling.PipelineConfig{
			Hypercubes: "random", Method: tc.method, NumHypercubes: 6, NumSamples: 20,
			CubeSx: 8, CubeSy: 8, CubeSz: 8, NumClusters: 4, Seed: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []Example // one build per cube, in ascending cube order
		for id := 0; id < 8; id++ {
			var one []sampling.CubeSample
			for _, cs := range cubes {
				if cs.Cube.ID == id {
					one = append(one, cs)
				}
			}
			if ex, err := tc.build(d, one, 1); err == nil {
				want = append(want, ex...)
			}
		}
		factory := func(rng *rand.Rand) Model {
			return NewMLPTransformer(rng, len(d.InputVars), 8, 2, len(d.OutputVars), 8)
		}
		if tc.method == "full" {
			factory = func(rng *rand.Rand) Model {
				return NewCNNTransformer(rng, len(d.InputVars), 8, 2, len(d.OutputVars), 8)
			}
		}
		var firstLoss float64
		for run := 0; run < 20; run++ {
			ex, err := tc.build(d, cubes, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, hist, err := Train(context.Background(), factory, ex, Config{Epochs: 1, Batch: 4, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			if len(ex) != len(want) || len(ex) < 12 {
				t.Fatalf("%s run %d: %d examples, the cubes one by one give %d", tc.method, run, len(ex), len(want))
			}
			for i := range ex {
				if !slices.Equal(ex[i].Input.Data, want[i].Input.Data) || !slices.Equal(ex[i].Target.Data, want[i].Target.Data) {
					t.Fatalf("%s run %d: example %d is not the one ascending cube order puts there", tc.method, run, i)
				}
			}
			if run == 0 {
				firstLoss = hist.FinalLoss
			}
			if math.Float64bits(hist.FinalLoss) != math.Float64bits(firstLoss) {
				t.Fatalf("%s run %d: FinalLoss %v, first run %v", tc.method, run, hist.FinalLoss, firstLoss)
			}
		}
	}
}

func TestBuildSampleSingleNeedsTargets(t *testing.T) {
	d, cubes := pipelineDataset(t, "random")
	if _, err := BuildSampleSingle(d, cubes, 2); err == nil {
		t.Fatal("expected error: dataset has no global targets")
	}
	d.GlobalTargets = []float64{1, 2, 3, 4}
	ex, err := BuildSampleSingle(d, cubes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 3 { // 4 snapshots, window 2 -> 3 windows
		t.Fatalf("built %d examples, want 3", len(ex))
	}
	if ex[0].Input.Dim(1) != 2*len(d.InputVars) {
		t.Fatalf("summary feature dim %v", ex[0].Input.Shape)
	}
	if ex[2].Target.Data[0] != 4 {
		t.Fatalf("target alignment wrong: %v", ex[2].Target.Data)
	}
}

func TestEndToEndMLPTransformerTrains(t *testing.T) {
	d, cubes := pipelineDataset(t, "maxent")
	ex, err := BuildSampleFull(d, cubes, 1)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rng *rand.Rand) Model {
		return NewMLPTransformer(rng, len(d.InputVars), 8, 2, len(d.OutputVars), 8)
	}
	_, hist, err := Train(context.Background(), factory, ex, Config{Epochs: 8, Batch: 4, Seed: 13, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if !(last < first) {
		t.Fatalf("MLP-Transformer loss did not decrease: %v -> %v", first, last)
	}
}

func TestEndToEndCNNTransformerTrains(t *testing.T) {
	d, cubes := pipelineDataset(t, "full")
	ex, err := BuildFullFull(d, cubes, 1)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rng *rand.Rand) Model {
		return NewCNNTransformer(rng, len(d.InputVars), 8, 2, len(d.OutputVars), 8)
	}
	_, hist, err := Train(context.Background(), factory, ex, Config{Epochs: 6, Batch: 4, Seed: 14, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if !(last < first) {
		t.Fatalf("CNN-Transformer loss did not decrease: %v -> %v", first, last)
	}
}

// TestCubeArchitecturesTrainOnAWindow: every cube architecture predicts a
// cube per window step [B, T, C', G, G, G], so its targets must carry one
// per step too; at window 2 each trains an epoch to a finite loss.
func TestCubeArchitecturesTrainOnAWindow(t *testing.T) {
	for _, arch := range []string{"mlp_transformer", "cnn_transformer", "matey"} {
		method := "maxent"
		if arch != "mlp_transformer" {
			method = "full"
		}
		d, cubes := pipelineDataset(t, method)
		spec := ArchSpec{Arch: arch, Hidden: 8}.SizedFor(d, 8)
		ex, err := spec.Examples(d, cubes, 2)
		if err != nil {
			t.Fatal(err)
		}
		factory := func(rng *rand.Rand) Model {
			m, err := spec.Build(rng)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		_, hist, err := Train(context.Background(), factory, ex, Config{Epochs: 1, Batch: 4, Seed: 16})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if loss := hist.TrainLoss[0]; math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s: window-2 loss %v", arch, loss)
		}
	}
}

func BenchmarkTrainEpochMLPTransformer(b *testing.B) {
	d, cubes := pipelineDataset(b, "maxent")
	ex, err := BuildSampleFull(d, cubes, 1)
	if err != nil {
		b.Fatal(err)
	}
	factory := func(rng *rand.Rand) Model {
		return NewMLPTransformer(rng, len(d.InputVars), 8, 2, len(d.OutputVars), 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(context.Background(), factory, ex, Config{Epochs: 1, Batch: 4, Seed: 15})
	}
}

// TestTrainCancelBetweenEpochs: cancellation from the per-epoch progress
// hook stops the run before the next epoch and returns ctx.Err().
func TestTrainCancelBetweenEpochs(t *testing.T) {
	ex := syntheticRegression(40, 21)
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 4, 1) }
	ctx, cancel := context.WithCancel(context.Background())
	var epochs []int
	_, _, err := Train(ctx, factory, ex, Config{
		Epochs: 10, Batch: 8, Seed: 22,
		Progress: func(done, total int) {
			epochs = append(epochs, done)
			if done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(epochs) != 2 || epochs[len(epochs)-1] != 2 {
		t.Fatalf("progress epochs = %v; training did not stop after the canceling epoch", epochs)
	}
}
