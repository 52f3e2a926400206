// Package train implements SICKLE-Go's model zoo (the three architectures
// of the paper's Table 2: LSTM, MLP-Transformer, CNN-Transformer, plus the
// MATEY-like multiscale model of Fig. 9), batch assembly from subsampled
// cubes, and the training loop with data-parallel execution over minimpi
// ranks and energy accounting.
package train

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model is a trainable network with explicit forward/backward passes.
//
// Lifetime contract: every model owns one step-scoped tensor workspace.
// Forward resets it and then draws every temporary of the pass — the
// prediction it returns included — from it, and Backward continues on the
// same tape. So the tensor Forward returns, and anything else a pass hands
// out, is valid until that model's next Forward and not a moment longer:
// copy what must outlive it. A model runs one pass at a time; callers that
// want concurrency hold one model per goroutine (DDP ranks, serve
// replicas).
type Model interface {
	nn.Module
	Name() string
	// Forward maps a batch input to a batch prediction, valid until the
	// next Forward on this model.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/dpred and accumulates parameter gradients. It
	// must follow the Forward whose prediction dy belongs to.
	Backward(dy *tensor.Tensor)
	// work exposes the embedded scratch to the trainer. Being unexported
	// it also closes the interface: every Model is built in this package.
	work() *scratch
}

// scratch is the per-model state every architecture embeds: the parameter
// list, built once at construction, and the two tapes of a step.
type scratch struct {
	params []*nn.Param
	// ws holds a pass's temporaries; Forward resets it.
	ws tensor.Workspace
	// feed holds what the caller feeds to Forward — the stacked input
	// and target — which has to survive Forward's reset; whoever stacks a
	// batch resets it (see BatchTape).
	feed tensor.Workspace
}

// paramsOf concatenates the parameters of mods in order.
func paramsOf(mods ...nn.Module) []*nn.Param {
	var out []*nn.Param
	for _, mod := range mods {
		out = append(out, mod.Params()...)
	}
	return out
}

// Params implements nn.Module with the list built at construction.
func (s *scratch) Params() []*nn.Param { return s.params }

func (s *scratch) work() *scratch { return s }

// BatchTape returns the workspace on which a caller assembles the batch it
// is about to pass to m.Forward: reset it, stack the batch on it, call
// Forward. The tensors on it stay valid until the caller's next reset.
func BatchTape(m Model) *tensor.Workspace { return &m.work().feed }

// LSTMModel is the paper's sample-single architecture: two LSTM layers and
// three dense layers mapping an input sequence [B, T, C] to a single
// per-sequence prediction [B, C'] (e.g. drag at the final timestep).
type LSTMModel struct {
	scratch
	lstm1, lstm2     *nn.LSTM
	d1, d2, d3       *nn.Linear
	a1, a2           *nn.Activation
	batch, seq, hid2 int
}

// NewLSTMModel builds the two-LSTM/three-dense stack of Table 2.
func NewLSTMModel(rng *rand.Rand, inDim, hidden, outDim int) *LSTMModel {
	m := &LSTMModel{
		lstm1: nn.NewLSTM(rng, inDim, hidden),
		lstm2: nn.NewLSTM(rng, hidden, hidden),
		d1:    nn.NewLinear(rng, hidden, hidden),
		a1:    nn.NewActivation("relu"),
		d2:    nn.NewLinear(rng, hidden, hidden/2+1),
		a2:    nn.NewActivation("relu"),
		d3:    nn.NewLinear(rng, hidden/2+1, outDim),
	}
	m.params = paramsOf(m.lstm1, m.lstm2, m.d1, m.d2, m.d3)
	return m
}

// Name implements Model.
func (m *LSTMModel) Name() string { return "LSTM" }

// Forward maps x [B, T, C] to [B, C'].
func (m *LSTMModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	ws := &m.ws
	ws.Reset()
	b, t := x.Dim(0), x.Dim(1)
	m.batch, m.seq = b, t
	h := m.lstm2.Forward(ws, m.lstm1.Forward(ws, x)) // [B, T, H]
	m.hid2 = h.Dim(2)
	// Take the final timestep.
	last := ws.New(b, m.hid2)
	for i := 0; i < b; i++ {
		copy(last.Data[i*m.hid2:(i+1)*m.hid2],
			h.Data[(i*t+t-1)*m.hid2:(i*t+t-1)*m.hid2+m.hid2])
	}
	return m.d3.Forward(ws, m.a2.Forward(ws, m.d2.Forward(ws, m.a1.Forward(ws, m.d1.Forward(ws, last)))))
}

// Backward implements Model.
func (m *LSTMModel) Backward(dy *tensor.Tensor) {
	ws := &m.ws
	dLast := m.d1.Backward(ws, m.a1.Backward(ws, m.d2.Backward(ws, m.a2.Backward(ws, m.d3.Backward(ws, dy)))))
	// Scatter the last-timestep gradient back into the sequence.
	dh := ws.New(m.batch, m.seq, m.hid2)
	for i := 0; i < m.batch; i++ {
		copy(dh.Data[(i*m.seq+m.seq-1)*m.hid2:(i*m.seq+m.seq-1)*m.hid2+m.hid2],
			dLast.Data[i*m.hid2:(i+1)*m.hid2])
	}
	m.lstm1.Backward(ws, m.lstm2.Backward(ws, dh))
}
