package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestLayerPassAllocs: once a layer's first pass has filled the workspace,
// an identical forward+backward allocates no tensor storage. Serial, that
// means no object at all — outputs, caches, gradient partials and scratch
// rows all sit on the tape. With the pool on, what is left belongs to the
// kernel calls that split: each builds its closure, a few dozen bytes, and
// takes a fresh job struct when a late helper still holds the last one, so
// at most two objects a split. The fan-out rule splits nothing at the small
// shapes; the two /split passes run matmuls of 2^20 and 2^21
// multiply-adds.
func TestLayerPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(1))
	type pass struct {
		name   string
		splits float64 // kernel calls per pass that the fan-out rule splits
		run    func(ws *tensor.Workspace)
	}
	seq := func(shape ...int) *tensor.Tensor { return tensor.Randn(rng, 1, shape...) }
	var passes []pass
	{
		l, x, dy := NewLinear(rng, 16, 12), seq(24, 16), seq(24, 12)
		passes = append(passes, pass{"Linear", 0, func(ws *tensor.Workspace) { l.Forward(ws, x); l.Backward(ws, dy) }})
	}
	for _, kind := range []string{"tanh", "relu"} {
		a, x := NewActivation(kind), seq(24, 16)
		passes = append(passes, pass{kind, 0, func(ws *tensor.Workspace) { a.Backward(ws, a.Forward(ws, x)) }})
	}
	{
		l, x := NewLayerNorm(16), seq(40, 16)
		passes = append(passes, pass{"LayerNorm", 0, func(ws *tensor.Workspace) { l.Backward(ws, l.Forward(ws, x)) }})
	}
	{
		m, x := NewMultiHeadAttention(rng, 16, 4), seq(3, 5, 16)
		passes = append(passes, pass{"MultiHeadAttention", 0, func(ws *tensor.Workspace) { m.Backward(ws, m.Forward(ws, x)) }})
	}
	{
		b, x := NewTransformerBlock(rng, 16, 4, 32), seq(3, 5, 16)
		passes = append(passes, pass{"TransformerBlock", 0, func(ws *tensor.Workspace) { b.Backward(ws, b.Forward(ws, x)) }})
	}
	{
		b, x := NewTransformerBlock(rng, 64, 4, 64), seq(8, 32, 64)
		passes = append(passes, pass{"TransformerBlock/split", 20, func(ws *tensor.Workspace) { b.Backward(ws, b.Forward(ws, x)) }})
	}
	{
		l, x, dy := NewLinear(rng, 64, 64), seq(512, 64), seq(512, 64)
		passes = append(passes, pass{"Linear/split", 3, func(ws *tensor.Workspace) { l.Forward(ws, x); l.Backward(ws, dy) }})
	}
	{
		l, x := NewLSTM(rng, 6, 16), seq(4, 5, 6)
		passes = append(passes, pass{"LSTM", 0, func(ws *tensor.Workspace) { l.Backward(ws, l.Forward(ws, x)) }})
	}
	{
		c, x := NewConv3D(rng, 2, 4, 2), seq(3, 2, 4, 4, 4)
		passes = append(passes, pass{"Conv3D", 0, func(ws *tensor.Workspace) { c.Backward(ws, c.Forward(ws, x)) }})
	}
	{
		c, x := NewConvTranspose3D(rng, 4, 2), seq(3, 4, 2, 2, 2)
		passes = append(passes, pass{"ConvTranspose3D", 0, func(ws *tensor.Workspace) { c.Backward(ws, c.Forward(ws, x)) }})
	}

	tensor.SetWorkers(4) // a real pool even on a single-core machine
	defer tensor.SetWorkers(0)
	for _, p := range passes {
		ws := new(tensor.Workspace)
		run := func() { ws.Reset(); p.run(ws) }
		run()
		if n := testing.AllocsPerRun(20, run); n > 2*p.splits {
			t.Errorf("%s: a repeated pass allocates %v objects with the pool on, want at most 2 for each of its %v split kernel calls", p.name, n, p.splits)
		}
		tensor.SetParallel(false)
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s: a repeated pass allocates %v objects serially, want 0", p.name, n)
		}
		tensor.SetParallel(true)
	}
}

// TestAdamStepAllocs: the optimizer keeps its moments parallel to the
// module's parameter list — after the first step it allocates nothing.
func TestAdamStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tensor.SetParallel(false)
	defer tensor.SetParallel(true)
	l := NewLinear(rand.New(rand.NewSource(1)), 8, 8)
	mod := &fixedParams{l.Params()}
	opt := NewAdam(1e-3)
	opt.Step(mod)
	if n := testing.AllocsPerRun(20, func() { ZeroGrads(mod); ClipGradNorm(mod, 1); opt.Step(mod) }); n != 0 {
		t.Fatalf("Adam step allocates %v objects", n)
	}
}

// fixedParams is a Module whose list is built once, as train's models do.
type fixedParams struct{ params []*Param }

func (f *fixedParams) Params() []*Param { return f.params }
