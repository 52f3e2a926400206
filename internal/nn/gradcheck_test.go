package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// mseLoss is the allocating form of MSELossInto: the loss and a fresh
// dL/dpred.
func mseLoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape...)
	return MSELossInto(grad, pred, target), grad
}

// ws is the workspace every layer test draws from. Nothing here resets it,
// so each tensor a layer hands out stays valid for the rest of the test.
var ws = new(tensor.Workspace)

// numGrad computes the finite-difference gradient of loss() with respect
// to every entry of w.
func numGrad(w *tensor.Tensor, loss func() float64) []float64 {
	const eps = 1e-6
	g := make([]float64, w.Len())
	for i := range w.Data {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		lp := loss()
		w.Data[i] = orig - eps
		lm := loss()
		w.Data[i] = orig
		g[i] = (lp - lm) / (2 * eps)
	}
	return g
}

func maxRelErr(analytic, numeric []float64) float64 {
	worst := 0.0
	for i := range analytic {
		denom := math.Abs(analytic[i]) + math.Abs(numeric[i]) + 1e-8
		if e := math.Abs(analytic[i]-numeric[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

// checkModuleGrads verifies every parameter gradient of mod against finite
// differences, where forward() recomputes the scalar loss from scratch and
// backward() runs one analytic forward+backward pass.
func checkModuleGrads(t *testing.T, mod Module, forward func() float64, backward func()) {
	t.Helper()
	ZeroGrads(mod)
	backward()
	for _, p := range mod.Params() {
		num := numGrad(p.W, forward)
		if e := maxRelErr(p.Grad.Data, num); e > 1e-4 {
			t.Fatalf("%s: gradient mismatch, max rel err %v", p.Name, e)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := tensor.Randn(rng, 1, 5, 4)
	tgt := tensor.Randn(rng, 1, 5, 3)
	forward := func() float64 {
		loss, _ := mseLoss(l.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(l.Forward(ws, x), tgt)
		l.Backward(ws, g)
	}
	checkModuleGrads(t, l, forward, backward)
}

func TestLinearInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 4, 3)
	x := tensor.Randn(rng, 1, 5, 4)
	tgt := tensor.Randn(rng, 1, 5, 3)
	_, g := mseLoss(l.Forward(ws, x), tgt)
	dx := l.Backward(ws, g)
	num := numGrad(x, func() float64 {
		loss, _ := mseLoss(l.Forward(ws, x), tgt)
		return loss
	})
	if e := maxRelErr(dx.Data, num); e > 1e-4 {
		t.Fatalf("dx mismatch: %v", e)
	}
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []string{"tanh", "relu"} {
		a := NewActivation(kind)
		x := tensor.Randn(rng, 1, 6, 4)
		// Keep ReLU inputs away from the kink.
		for i := range x.Data {
			if math.Abs(x.Data[i]) < 0.05 {
				x.Data[i] = 0.1
			}
		}
		tgt := tensor.Randn(rng, 1, 6, 4)
		_, g := mseLoss(a.Forward(ws, x), tgt)
		dx := a.Backward(ws, g)
		num := numGrad(x, func() float64 {
			loss, _ := mseLoss(a.Forward(ws, x), tgt)
			return loss
		})
		if e := maxRelErr(dx.Data, num); e > 1e-4 {
			t.Fatalf("%s dx mismatch: %v", kind, e)
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, 3, 5)
	x := tensor.Randn(rng, 1, 2, 4, 3) // [B=2, T=4, C=3]
	tgt := tensor.Randn(rng, 1, 2, 4, 5)
	forward := func() float64 {
		loss, _ := mseLoss(l.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(l.Forward(ws, x), tgt)
		l.Backward(ws, g)
	}
	checkModuleGrads(t, l, forward, backward)
}

func TestLSTMInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM(rng, 3, 4)
	x := tensor.Randn(rng, 1, 2, 3, 3)
	tgt := tensor.Randn(rng, 1, 2, 3, 4)
	_, g := mseLoss(l.Forward(ws, x), tgt)
	dx := l.Backward(ws, g)
	num := numGrad(x, func() float64 {
		loss, _ := mseLoss(l.Forward(ws, x), tgt)
		return loss
	})
	if e := maxRelErr(dx.Data, num); e > 1e-4 {
		t.Fatalf("LSTM dx mismatch: %v", e)
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLayerNorm(5)
	// Non-trivial gain/bias so the test isn't at the identity point.
	for i := range l.Gain.W.Data {
		l.Gain.W.Data[i] = 1 + 0.3*rng.NormFloat64()
		l.Bias.W.Data[i] = 0.2 * rng.NormFloat64()
	}
	x := tensor.Randn(rng, 1, 4, 5)
	tgt := tensor.Randn(rng, 1, 4, 5)
	forward := func() float64 {
		loss, _ := mseLoss(l.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(l.Forward(ws, x), tgt)
		l.Backward(ws, g)
	}
	checkModuleGrads(t, l, forward, backward)
	// Input gradient too.
	ZeroGrads(l)
	_, g := mseLoss(l.Forward(ws, x), tgt)
	dx := l.Backward(ws, g)
	num := numGrad(x, forward)
	if e := maxRelErr(dx.Data, num); e > 1e-4 {
		t.Fatalf("LayerNorm dx mismatch: %v", e)
	}
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMultiHeadAttention(rng, 6, 2)
	x := tensor.Randn(rng, 1, 2, 3, 6)
	tgt := tensor.Randn(rng, 1, 2, 3, 6)
	forward := func() float64 {
		loss, _ := mseLoss(m.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(m.Forward(ws, x), tgt)
		m.Backward(ws, g)
	}
	checkModuleGrads(t, m, forward, backward)
	ZeroGrads(m)
	_, g := mseLoss(m.Forward(ws, x), tgt)
	dx := m.Backward(ws, g)
	num := numGrad(x, forward)
	if e := maxRelErr(dx.Data, num); e > 1e-4 {
		t.Fatalf("attention dx mismatch: %v", e)
	}
}

func TestTransformerBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// tanh feed-forward: the check must avoid ReLU kinks, which make
	// finite differences disagree with the (correct) subgradient.
	b := NewTransformerBlockAct(rng, 6, 2, 8, "tanh")
	x := tensor.Randn(rng, 1, 2, 3, 6)
	tgt := tensor.Randn(rng, 1, 2, 3, 6)
	forward := func() float64 {
		loss, _ := mseLoss(b.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(b.Forward(ws, x), tgt)
		b.Backward(ws, g)
	}
	checkModuleGrads(t, b, forward, backward)
}

// TestConv3DGradients checks the kernel, bias and input gradients against
// finite differences at k = 2 and at k = 4.
func TestConv3DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{2, 4} {
		c := NewConv3D(rng, 2, 3, k)
		x := tensor.Randn(rng, 1, 1, 2, 2*k, k, 2*k)
		out := c.Forward(ws, x)
		tgt := tensor.Randn(rng, 1, out.Shape...)
		forward := func() float64 {
			loss, _ := mseLoss(c.Forward(ws, x), tgt)
			return loss
		}
		backward := func() {
			_, g := mseLoss(c.Forward(ws, x), tgt)
			c.Backward(ws, g)
		}
		checkModuleGrads(t, c, forward, backward)
		ZeroGrads(c)
		_, g := mseLoss(c.Forward(ws, x), tgt)
		dx := c.Backward(ws, g)
		num := numGrad(x, forward)
		if e := maxRelErr(dx.Data, num); e > 1e-4 {
			t.Fatalf("conv3d k=%d dx mismatch: %v", k, e)
		}
	}
}

func TestConvTranspose3DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConvTranspose3D(rng, 2, 2)
	x := tensor.Randn(rng, 1, 1, 2, 2, 2, 2)
	out := c.Forward(ws, x)
	if out.Dim(2) != 4 {
		t.Fatalf("convtranspose output %v, want spatial 4³", out.Shape)
	}
	tgt := tensor.Randn(rng, 1, out.Shape...)
	forward := func() float64 {
		loss, _ := mseLoss(c.Forward(ws, x), tgt)
		return loss
	}
	backward := func() {
		_, g := mseLoss(c.Forward(ws, x), tgt)
		c.Backward(ws, g)
	}
	checkModuleGrads(t, c, forward, backward)
	ZeroGrads(c)
	_, g := mseLoss(c.Forward(ws, x), tgt)
	dx := c.Backward(ws, g)
	num := numGrad(x, forward)
	if e := maxRelErr(dx.Data, num); e > 1e-4 {
		t.Fatalf("convtranspose dx mismatch: %v", e)
	}
}

func TestMSELossValueAndGrad(t *testing.T) {
	p := tensor.FromSlice([]float64{1, 2}, 2)
	tt := tensor.FromSlice([]float64{0, 4}, 2)
	loss, g := mseLoss(p, tt)
	if math.Abs(loss-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("loss = %v", loss)
	}
	if math.Abs(g.Data[0]-1) > 1e-12 || math.Abs(g.Data[1]+2) > 1e-12 {
		t.Fatalf("grad = %v", g.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear(rng, 1, 1)
	opt := NewAdam(0.05)
	// Fit y = 3x - 1.
	x := tensor.FromSlice([]float64{-1, 0, 1, 2}, 4, 1)
	y := tensor.FromSlice([]float64{-4, -1, 2, 5}, 4, 1)
	var loss float64
	for it := 0; it < 500; it++ {
		ZeroGrads(l)
		pred := l.Forward(ws, x)
		var g *tensor.Tensor
		loss, g = mseLoss(pred, y)
		l.Backward(ws, g)
		opt.Step(l)
	}
	if loss > 1e-6 {
		t.Fatalf("Adam failed to fit line: loss %v", loss)
	}
	if math.Abs(l.W.W.Data[0]-3) > 0.01 || math.Abs(l.B.W.Data[0]+1) > 0.01 {
		t.Fatalf("fitted w=%v b=%v", l.W.W.Data[0], l.B.W.Data[0])
	}
}

func TestPlateauScheduler(t *testing.T) {
	opt := NewAdam(1.0)
	s := NewPlateauScheduler(opt)
	for i := 0; i < plateauPatience; i++ {
		s.Observe(1.0) // first sets best, then patience-1 bad epochs
	}
	if opt.LR != 1.0 {
		t.Fatalf("LR decayed too early: %v", opt.LR)
	}
	s.Observe(1.0) // the patience-th bad epoch -> decay
	if opt.LR != 0.5 {
		t.Fatalf("LR = %v, want 0.5", opt.LR)
	}
	s.Observe(0.1) // improvement resets
	for i := 1; i < plateauPatience; i++ {
		s.Observe(0.2)
	}
	if opt.LR != 0.5 {
		t.Fatalf("LR decayed during reset window: %v", opt.LR)
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLinear(rng, 3, 3)
	for _, p := range l.Params() {
		p.Grad.Fill(10)
	}
	ClipGradNorm(l, 1.0)
	if n := GradNorm(l); math.Abs(n-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", n)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewLinear(rng, 4, 3)
	if got := ParamCount(l); got != 4*3+3 {
		t.Fatalf("ParamCount = %d", got)
	}
}
