// Package nn is SICKLE-Go's neural-network stack: the layers the paper's
// three architectures need (Linear, LSTM, LayerNorm, multi-head attention,
// Conv3D/ConvTranspose3D), MSE loss, the Adam optimizer with
// reduce-on-plateau scheduling, and gradient utilities. Every layer
// implements its backward pass analytically; tests validate each against
// finite differences, and the two convolutions (block matmuls, k = stride,
// no padding) bit for bit against the direct loops they replaced.
package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam allocates a parameter and its gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...)}
}

// Module is anything owning parameters. Params returns the same
// parameters in the same order on every call (checkpoints and the
// optimizer's state are positional); callers must not modify the returned
// slice, which a module may build once and hand out again.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears the gradients of all parameters.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of scalars in a module.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// GradNorm returns the global L2 norm of all gradients.
func GradNorm(m Module) float64 {
	s := 0.0
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales gradients so their global norm is at most maxNorm.
func ClipGradNorm(m Module, maxNorm float64) {
	n := GradNorm(m)
	if n <= maxNorm || n == 0 {
		return
	}
	f := maxNorm / n
	for _, p := range m.Params() {
		p.Grad.Scale(f)
	}
}

// xavier returns the Glorot-uniform initialization scale for a layer with
// the given fan-in and fan-out.
func xavier(fanIn, fanOut int) float64 {
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// initLinear fills w (out×in) with Glorot-uniform values.
func initLinear(rng *rand.Rand, out, in int) *tensor.Tensor {
	return tensor.Rand(rng, xavier(in, out), out, in)
}
