package nn

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(rng, 3, 5)
	path := filepath.Join(t.TempDir(), "ck.sknn")
	if err := SaveCheckpoint(path, l); err != nil {
		t.Fatal(err)
	}
	l2 := NewLSTM(rand.New(rand.NewSource(2)), 3, 5) // different init
	if err := LoadCheckpoint(path, l2); err != nil {
		t.Fatal(err)
	}
	pa, pb := l.Params(), l2.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("param %s differs after round trip", pa[i].Name)
			}
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, 4, 3)
	path := filepath.Join(t.TempDir(), "ck.sknn")
	if err := SaveCheckpoint(path, l); err != nil {
		t.Fatal(err)
	}
	if err := LoadCheckpoint(path, NewLinear(rng, 5, 3)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	if err := LoadCheckpoint(path, NewLSTM(rng, 4, 3)); err == nil {
		t.Fatal("expected param-count mismatch error")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(rng, 2, 2)
	if err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope"), l); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestFP16RoundKnownValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-2, -2},
		{0.5, 0.5},
		{65504, 65504},        // max half
		{100000, math.Inf(1)}, // overflow saturates
		{-100000, math.Inf(-1)},
		{1e-10, 0}, // below subnormal range flushes
	}
	for _, c := range cases {
		if got := fp16Round(c.in); got != c.want {
			t.Fatalf("fp16(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// 1/3 is not representable: error bounded by half-precision ulp.
	got := fp16Round(1.0 / 3)
	if math.Abs(got-1.0/3) > 1.0/3*1e-3 || got == 1.0/3 {
		t.Fatalf("fp16(1/3) = %v", got)
	}
}

func TestQuantizeFP16SmallError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear(rng, 8, 8)
	before := append([]float64(nil), l.W.W.Data...)
	worst := QuantizeFP16(l)
	if worst <= 0 {
		t.Fatal("quantization introduced no rounding at all (implausible)")
	}
	// Relative error stays within half-precision epsilon (2^-11 ≈ 4.9e-4).
	for i, v := range l.W.W.Data {
		if before[i] == 0 {
			continue
		}
		if math.Abs(v-before[i])/math.Abs(before[i]) > 6e-4 {
			t.Fatalf("relative rounding error too large at %d: %v -> %v", i, before[i], v)
		}
	}
}

// TestQuantizedModelStillWorks: a trained model keeps (almost) its loss
// after fp16 quantization — the premise behind the paper's mixed-precision
// option.
func TestQuantizedModelStillWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLinear(rng, 1, 1)
	opt := NewAdam(0.05)
	x := tensor.FromSlice([]float64{-1, 0, 1, 2}, 4, 1)
	y := tensor.FromSlice([]float64{-4, -1, 2, 5}, 4, 1)
	for it := 0; it < 300; it++ {
		ZeroGrads(l)
		pred := l.Forward(ws, x)
		_, g := MSELoss(pred, y)
		l.Backward(ws, g)
		opt.Step(l)
	}
	lossBefore, _ := MSELoss(l.Forward(ws, x), y)
	QuantizeFP16(l)
	lossAfter, _ := MSELoss(l.Forward(ws, x), y)
	if lossAfter > lossBefore+1e-3 {
		t.Fatalf("fp16 destroyed the model: %v -> %v", lossBefore, lossAfter)
	}
}
