package nn

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// quantizeFP16 rounds every parameter through IEEE-754 half precision and
// returns the maximum absolute rounding error introduced: a simulation of
// the paper's --precision fp16 option. No program path offers that option
// yet, so the simulation and its tests wait here for the ablation that
// wires it in.
func quantizeFP16(m Module) float64 {
	worst := 0.0
	for _, p := range m.Params() {
		for i, v := range p.W.Data {
			q := fp16Round(v)
			if e := math.Abs(q - v); e > worst {
				worst = e
			}
			p.W.Data[i] = q
		}
	}
	return worst
}

// fp16Round converts a float64 to IEEE-754 binary16 and back (round to
// nearest even), saturating to ±Inf outside the half range.
func fp16Round(v float64) float64 {
	f32 := float32(v)
	bits := math.Float32bits(f32)
	sign := bits >> 31
	exp := int32((bits>>23)&0xff) - 127
	man := bits & 0x7fffff
	switch {
	case exp == 128: // Inf/NaN pass through
		return v
	case exp > 15:
		return math.Inf(int(1 - 2*int(sign)))
	case exp < -24:
		if sign == 1 {
			return math.Copysign(0, -1)
		}
		return 0
	case exp < -14:
		// Subnormal half: shift mantissa (with implicit 1) into place.
		shift := uint(-exp - 14 + 13)
		full := man | 0x800000
		half := full >> (shift + 10)
		// Round to nearest (ties away, adequate for simulation purposes).
		if full>>(shift+9)&1 == 1 {
			half++
		}
		res := float64(half) / 1024 * math.Pow(2, -14)
		if sign == 1 {
			return -res
		}
		return res
	}
	// Normal half: keep 10 mantissa bits with round-to-nearest-even.
	keep := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && keep&1 == 1) {
		keep++
		if keep == 0x400 {
			keep = 0
			exp++
			if exp > 15 {
				return math.Inf(int(1 - 2*int(sign)))
			}
		}
	}
	res := (1 + float64(keep)/1024) * math.Pow(2, float64(exp))
	if sign == 1 {
		return -res
	}
	return res
}

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
	worst := quantizeFP16(l)
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
		_, g := mseLoss(pred, y)
		l.Backward(ws, g)
		opt.Step(l)
	}
	lossBefore, _ := mseLoss(l.Forward(ws, x), y)
	quantizeFP16(l)
	lossAfter, _ := mseLoss(l.Forward(ws, x), y)
	if lossAfter > lossBefore+1e-3 {
		t.Fatalf("fp16 destroyed the model: %v -> %v", lossBefore, lossAfter)
	}
}
