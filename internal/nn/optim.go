package nn

import (
	"math"

	"repro/internal/tensor"
)

// MSELossInto returns the ½-free mean squared error L = mean((pred-target)²)
// and writes dL/dpred into grad (which must match pred's length), so hot
// loops can take the gradient buffer from their step workspace instead of
// allocating one per step.
func MSELossInto(grad, pred, target *tensor.Tensor) float64 {
	if pred.Len() != target.Len() || grad.Len() != pred.Len() {
		panic("nn: MSE length mismatch")
	}
	n := float64(pred.Len())
	loss := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// Adam's moment decay rates and denominator guard: the paper's settings
// (Kingma & Ba's defaults). Typed, so 1-adamBeta1 rounds as float64
// arithmetic does.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// Adam is the Adam optimizer (Kingma & Ba 2015) with β₁ 0.9, β₂ 0.999,
// ε 1e-8 and no weight decay; only the learning rate is settable. One
// Adam drives one module: its moments are kept per parameter, in the order
// of the Params() list the first Step saw.
type Adam struct {
	LR   float64
	step int
	m, v [][]float64
}

// NewAdam builds Adam at learning rate lr (the paper's is 0.001).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr}
}

// Step applies one update to all parameters of mod using their accumulated
// gradients.
func (a *Adam) Step(mod Module) {
	params := mod.Params()
	if a.m == nil {
		a.m, a.v = momentsFor(params), momentsFor(params)
	}
	if len(params) != len(a.m) {
		panic("nn: Adam stepped on a module other than the one it started with")
	}
	a.step++
	bc1 := 1 - math.Pow(adamBeta1, float64(a.step))
	bc2 := 1 - math.Pow(adamBeta2, float64(a.step))
	pool := tensor.DefaultPool()
	for k, p := range params {
		// The per-element update is independent, so it fans out across the
		// kernel pool (bit-identical to the serial loop).
		w, grad, mom, vel := p.W.Data, p.Grad.Data, a.m[k], a.v[k]
		if pool.Inline(len(w), len(w)) {
			a.update(w, grad, mom, vel, bc1, bc2, 0, len(w))
			continue
		}
		pool.ParallelFor(len(w), len(w), func(lo, hi int) { a.update(w, grad, mom, vel, bc1, bc2, lo, hi) })
	}
}

func (a *Adam) update(w, grad, mom, vel []float64, bc1, bc2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := grad[i]
		mom[i] = adamBeta1*mom[i] + (1-adamBeta1)*g
		vel[i] = adamBeta2*vel[i] + (1-adamBeta2)*g*g
		mh := mom[i] / bc1
		vh := vel[i] / bc2
		w[i] -= a.LR * mh / (math.Sqrt(vh) + adamEps)
	}
}

// momentsFor returns one zeroed moment vector per parameter, all cut from a
// single allocation.
func momentsFor(params []*Param) [][]float64 {
	total := 0
	for _, p := range params {
		total += p.W.Len()
	}
	flat := make([]float64, total)
	out := make([][]float64, len(params))
	for k, p := range params {
		n := p.W.Len()
		out[k], flat = flat[:n:n], flat[n:]
	}
	return out
}

// The paper's plateau schedule: the LR halves after plateauPatience
// epochs without a new best validation loss, down to plateauMinLR.
const (
	plateauPatience         = 20
	plateauFactor   float64 = 0.5
	plateauMinLR    float64 = 1e-6
)

// PlateauScheduler implements reduce-LR-on-plateau with the paper's
// training configuration (patience 20, factor 0.5, floor 1e-6), none of it
// settable.
type PlateauScheduler struct {
	Opt     *Adam
	best    float64
	bad     int
	started bool
}

// NewPlateauScheduler wraps opt with plateau-based LR decay.
func NewPlateauScheduler(opt *Adam) *PlateauScheduler {
	return &PlateauScheduler{Opt: opt}
}

// Observe records an epoch's validation loss, decaying the LR when no
// improvement has been seen for plateauPatience epochs. It returns the
// current LR.
func (s *PlateauScheduler) Observe(loss float64) float64 {
	if !s.started || loss < s.best {
		s.best = loss
		s.bad = 0
		s.started = true
		return s.Opt.LR
	}
	s.bad++
	if s.bad >= plateauPatience {
		s.bad = 0
		s.Opt.LR *= plateauFactor
		if s.Opt.LR < plateauMinLR {
			s.Opt.LR = plateauMinLR
		}
	}
	return s.Opt.LR
}
