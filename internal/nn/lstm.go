package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// LSTM is a single-layer LSTM over sequences x[B, T, In] producing hidden
// states h[B, T, Hidden], with full backprop through time. Gates follow the
// standard formulation:
//
//	i = σ(x·Wiᵀ + h·Uiᵀ + bi)    f = σ(x·Wfᵀ + h·Ufᵀ + bf)
//	g = tanh(x·Wgᵀ + h·Ugᵀ + bg) o = σ(x·Woᵀ + h·Uoᵀ + bo)
//	c' = f∘c + i∘g               h' = o∘tanh(c')
type LSTM struct {
	In, Hidden int
	// Gate parameter blocks, order: i, f, g, o.
	Wx [4]*Param // [Hidden, In]
	Wh [4]*Param // [Hidden, Hidden]
	B  [4]*Param // [Hidden]

	// caches for BPTT
	x          *tensor.Tensor      // [B, T, In]
	gates      [4][]*tensor.Tensor // per timestep, [B, Hidden]
	cells      []*tensor.Tensor    // c_t, per timestep
	hiddens    []*tensor.Tensor    // h_t, per timestep
	tanhCells  []*tensor.Tensor    // tanh(c_t)
	batch, seq int
}

// NewLSTM constructs an LSTM layer. The forget-gate bias starts at 1, the
// usual trick to preserve gradient flow early in training.
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{In: in, Hidden: hidden}
	names := [4]string{"i", "f", "g", "o"}
	for g := 0; g < 4; g++ {
		l.Wx[g] = NewParam("lstm.wx."+names[g], initLinear(rng, hidden, in))
		l.Wh[g] = NewParam("lstm.wh."+names[g], initLinear(rng, hidden, hidden))
		b := tensor.New(hidden)
		if names[g] == "f" {
			b.Fill(1)
		}
		l.B[g] = NewParam("lstm.b."+names[g], b)
	}
	return l
}

// Params implements Module.
func (l *LSTM) Params() []*Param {
	out := make([]*Param, 0, 12)
	for g := 0; g < 4; g++ {
		out = append(out, l.Wx[g], l.Wh[g], l.B[g])
	}
	return out
}

// timeSlice extracts x_t [B, In] from x [B, T, In] onto ws.
func timeSlice(ws *tensor.Workspace, x *tensor.Tensor, t int) *tensor.Tensor {
	b, tt, c := x.Dim(0), x.Dim(1), x.Dim(2)
	out := ws.New(b, c)
	for i := 0; i < b; i++ {
		copy(out.Data[i*c:(i+1)*c], x.Data[(i*tt+t)*c:(i*tt+t)*c+c])
	}
	return out
}

// setTimeSlice writes v [B, C] into dst [B, T, C] at time t.
func setTimeSlice(dst, v *tensor.Tensor, t int) {
	b, tt, c := dst.Dim(0), dst.Dim(1), dst.Dim(2)
	for i := 0; i < b; i++ {
		copy(dst.Data[(i*tt+t)*c:(i*tt+t)*c+c], v.Data[i*c:(i+1)*c])
	}
}

// perStep returns s resized to one entry per timestep, reusing its array.
func perStep(s []*tensor.Tensor, seq int) []*tensor.Tensor {
	if cap(s) < seq {
		return make([]*tensor.Tensor, seq)
	}
	return s[:seq]
}

// Forward runs the sequence and returns h [B, T, Hidden].
func (l *LSTM) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	b, seq := x.Dim(0), x.Dim(1)
	l.x = x
	l.batch, l.seq = b, seq
	l.cells = perStep(l.cells, seq)
	l.hiddens = perStep(l.hiddens, seq)
	l.tanhCells = perStep(l.tanhCells, seq)
	for g := 0; g < 4; g++ {
		l.gates[g] = perStep(l.gates[g], seq)
	}

	h := ws.New(b, l.Hidden)
	c := ws.New(b, l.Hidden)
	out := ws.New(b, seq, l.Hidden)
	for t := 0; t < seq; t++ {
		xt := timeSlice(ws, x, t)
		var pre [4]*tensor.Tensor
		for g := 0; g < 4; g++ {
			// x·Wᵀ and h·Uᵀ in the weights' stored orientation; both
			// products accumulate straight into p — no transposes, no temp.
			p := ws.New(b, l.Hidden)
			tensor.MatMulTransBAccum(p, xt, l.Wx[g].W)
			tensor.MatMulTransBAccum(p, h, l.Wh[g].W)
			tensor.AddRowVecInto(p, p, l.B[g].W)
			pre[g] = p
		}
		pre[0].Apply(sigmoid) // i
		pre[1].Apply(sigmoid) // f
		pre[2].Apply(tanh)    // g
		pre[3].Apply(sigmoid) // o

		cNew := ws.New(b, l.Hidden)
		for i := range cNew.Data {
			cNew.Data[i] = pre[1].Data[i]*c.Data[i] + pre[0].Data[i]*pre[2].Data[i]
		}
		tc := ws.New(b, l.Hidden)
		tensor.ApplyInto(tc, cNew, tanh)
		hNew := ws.New(b, l.Hidden)
		tensor.MulInto(hNew, pre[3], tc)

		for g := 0; g < 4; g++ {
			l.gates[g][t] = pre[g]
		}
		l.cells[t] = cNew
		l.tanhCells[t] = tc
		l.hiddens[t] = hNew
		setTimeSlice(out, hNew, t)
		h, c = hNew, cNew
	}
	return out
}

// Backward takes dL/dh for the full sequence [B, T, Hidden], accumulates
// parameter gradients, and returns dL/dx [B, T, In].
func (l *LSTM) Backward(ws *tensor.Workspace, dout *tensor.Tensor) *tensor.Tensor {
	b, seq := l.batch, l.seq
	dx := ws.New(b, seq, l.In)
	dhNext := ws.New(b, l.Hidden)
	dcNext := ws.New(b, l.Hidden)
	zero := ws.New(b, l.Hidden) // c and h before the first timestep

	for t := seq - 1; t >= 0; t-- {
		dh := timeSlice(ws, dout, t)
		tensor.AddInto(dh, dh, dhNext)

		i, f, g, o := l.gates[0][t], l.gates[1][t], l.gates[2][t], l.gates[3][t]
		tc := l.tanhCells[t]

		// dc = dh ∘ o ∘ (1 - tanh²(c)) + dcNext
		dc := ws.New(b, l.Hidden)
		for k := range dc.Data {
			dc.Data[k] = dh.Data[k]*o.Data[k]*(1-tc.Data[k]*tc.Data[k]) + dcNext.Data[k]
		}

		cPrev, hPrev := zero, zero
		if t > 0 {
			cPrev, hPrev = l.cells[t-1], l.hiddens[t-1]
		}

		// Gate pre-activation gradients.
		dPre := [4]*tensor.Tensor{
			ws.New(b, l.Hidden), ws.New(b, l.Hidden),
			ws.New(b, l.Hidden), ws.New(b, l.Hidden),
		}
		for k := range dc.Data {
			di := dc.Data[k] * g.Data[k]
			df := dc.Data[k] * cPrev.Data[k]
			dg := dc.Data[k] * i.Data[k]
			do := dh.Data[k] * tc.Data[k]
			dPre[0].Data[k] = di * i.Data[k] * (1 - i.Data[k])
			dPre[1].Data[k] = df * f.Data[k] * (1 - f.Data[k])
			dPre[2].Data[k] = dg * (1 - g.Data[k]*g.Data[k])
			dPre[3].Data[k] = do * o.Data[k] * (1 - o.Data[k])
		}

		xt := timeSlice(ws, l.x, t)
		dxt := ws.New(b, l.In)
		dhPrev := ws.New(b, l.Hidden)
		for gi := 0; gi < 4; gi++ {
			// Parameter grads accumulate in place (no transpose temps).
			tensor.MatMulTransAAccum(l.Wx[gi].Grad, dPre[gi], xt)
			tensor.MatMulTransAAccum(l.Wh[gi].Grad, dPre[gi], hPrev)
			tensor.SumRowsInto(l.B[gi].Grad, dPre[gi])
			// Input/previous-hidden grads.
			tensor.MatMulAccum(dxt, dPre[gi], l.Wx[gi].W)
			tensor.MatMulAccum(dhPrev, dPre[gi], l.Wh[gi].W)
		}
		setTimeSlice(dx, dxt, t)

		dhNext = dhPrev
		dcNext = ws.New(b, l.Hidden)
		tensor.MulInto(dcNext, dc, f)
	}
	return dx
}
