package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b over 2-D inputs [B, in].
type Linear struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]
	// cached input for backward
	x *tensor.Tensor
}

// NewLinear builds a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		In: in, Out: out,
		W: NewParam("linear.w", initLinear(rng, out, in)),
		B: NewParam("linear.b", tensor.New(out)),
	}
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward computes y[B,Out] from x[B,In], caching x for backward. The
// weight is consumed in its stored [Out, In] orientation — no transposed
// copy is materialized per call — and y lives on ws.
func (l *Linear) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	y := ws.New(x.Dim(0), l.Out)
	tensor.MatMulTransBAccum(y, x, l.W.W)
	tensor.AddRowVecInto(y, y, l.B.W)
	return y
}

// Backward takes dL/dy [B,Out], accumulates parameter grads, and returns
// dL/dx [B,In] on ws.
func (l *Linear) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	// dW += dyᵀ·x directly into the grad accumulator; db += Σ_B dy; dx = dy·W.
	tensor.MatMulTransAAccum(l.W.Grad, dy, l.x)
	tensor.SumRowsInto(l.B.Grad, dy)
	dx := ws.New(dy.Dim(0), l.In)
	tensor.MatMulAccum(dx, dy, l.W.W)
	return dx
}

// Activation is an element-wise nonlinearity with cached forward output or
// input, as its derivative requires.
type Activation struct {
	Kind string // "tanh" | "relu"
	out  *tensor.Tensor
	in   *tensor.Tensor
}

// NewActivation builds a named activation; it panics on unknown kinds so
// configuration errors surface at construction.
func NewActivation(kind string) *Activation {
	switch kind {
	case "tanh", "relu":
		return &Activation{Kind: kind}
	}
	panic("nn: unknown activation " + kind)
}

// Params implements Module.
func (a *Activation) Params() []*Param { return nil }

// Forward applies the nonlinearity, writing a new tensor on ws.
func (a *Activation) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	y := ws.New(x.Shape...)
	switch a.Kind {
	case "tanh":
		tensor.ApplyInto(y, x, tanh)
		a.out = y
	case "relu":
		a.in = x
		out := y.Data[:len(x.Data)]
		for i, v := range x.Data {
			out[i] = math.Float64frombits(math.Float64bits(v) & keep(v))
		}
	}
	return y
}

// Backward maps dL/dy to dL/dx.
func (a *Activation) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	dx := ws.New(dy.Shape...)
	switch a.Kind {
	case "tanh":
		for i, g := range dy.Data {
			o := a.out.Data[i]
			dx.Data[i] = g * (1 - o*o)
		}
	case "relu":
		in, out := a.in.Data[:len(dy.Data)], dx.Data[:len(dy.Data)]
		for i, g := range dy.Data {
			out[i] = math.Float64frombits(math.Float64bits(g) & keep(in[i]))
		}
	}
	return dx
}

// keep is ReLU's mask, all ones unless v < 0: v & keep(v) passes NaN and
// −0 as they are and turns a negative into +0. It is a select (CMOV), not a
// branch, on purpose: the sign follows the data, and the branch mispredicted.
func keep(v float64) uint64 {
	m := ^uint64(0)
	if v < 0 {
		m = 0
	}
	return m
}

func tanh(x float64) float64 { return math.Tanh(x) }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
