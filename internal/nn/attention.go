package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LayerNorm normalizes the last dimension of [N, D] inputs with learned
// gain and bias.
type LayerNorm struct {
	D     int
	Gain  *Param // [D]
	Bias  *Param // [D]
	Eps   float64
	xhat  *tensor.Tensor
	invSD []float64 // per row
}

// NewLayerNorm builds a LayerNorm over feature dimension d.
func NewLayerNorm(d int) *LayerNorm {
	g := tensor.New(d)
	g.Fill(1)
	return &LayerNorm{D: d, Gain: NewParam("ln.g", g), Bias: NewParam("ln.b", tensor.New(d)), Eps: 1e-5}
}

// Params implements Module.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gain, l.Bias} }

// Forward normalizes each row of x [N, D]. Rows are independent, so they
// fan out across the kernel pool.
func (l *LayerNorm) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	n, d := x.Dim(0), x.Dim(1)
	l.xhat = ws.New(n, d)
	l.invSD = ws.New(n).Data
	out := ws.New(n, d)
	p := tensor.DefaultPool()
	if p.Inline(n, n*d) {
		l.forwardRows(x, out, 0, n)
	} else {
		p.ParallelFor(n, n*d, func(i0, i1 int) { l.forwardRows(x, out, i0, i1) })
	}
	return out
}

func (l *LayerNorm) forwardRows(x, out *tensor.Tensor, i0, i1 int) {
	d := x.Dim(1)
	for i := i0; i < i1; i++ {
		row := x.Data[i*d : (i+1)*d]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(d)
		varr := 0.0
		for _, v := range row {
			dv := v - mean
			varr += dv * dv
		}
		varr /= float64(d)
		inv := 1 / math.Sqrt(varr+l.Eps)
		l.invSD[i] = inv
		for j, v := range row {
			xh := (v - mean) * inv
			l.xhat.Data[i*d+j] = xh
			out.Data[i*d+j] = xh*l.Gain.W.Data[j] + l.Bias.W.Data[j]
		}
	}
}

// Backward propagates dL/dy [N, D] to dL/dx.
func (l *LayerNorm) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	n, d := dy.Dim(0), dy.Dim(1)
	dx := ws.New(n, d)
	dxhat := ws.New(d).Data // one row of scratch, rewritten for every row
	fd := float64(d)
	for i := 0; i < n; i++ {
		var sumDxhat, sumDxhatXhat float64
		for j := 0; j < d; j++ {
			dyv := dy.Data[i*d+j]
			l.Gain.Grad.Data[j] += dyv * l.xhat.Data[i*d+j]
			l.Bias.Grad.Data[j] += dyv
			dxhat[j] = dyv * l.Gain.W.Data[j]
			sumDxhat += dxhat[j]
			sumDxhatXhat += dxhat[j] * l.xhat.Data[i*d+j]
		}
		inv := l.invSD[i]
		for j := 0; j < d; j++ {
			dx.Data[i*d+j] = inv / fd * (fd*dxhat[j] - sumDxhat - l.xhat.Data[i*d+j]*sumDxhatXhat)
		}
	}
	return dx
}

// MultiHeadAttention is scaled dot-product self-attention over sequences
// x[B, T, D] with H heads (D divisible by H).
type MultiHeadAttention struct {
	D, H  int
	WQ    *Linear
	WK    *Linear
	WV    *Linear
	WO    *Linear
	batch int
	seq   int
	// caches: attention weights [B·H, T, T], one matrix per (batch, head),
	// and the projected q, k, v rows.
	attn    *tensor.Tensor
	q, k, v *tensor.Tensor // [B*T, D]
}

// NewMultiHeadAttention builds self-attention with h heads over model
// dimension d.
func NewMultiHeadAttention(rng *rand.Rand, d, h int) *MultiHeadAttention {
	if d%h != 0 {
		panic("nn: model dim must be divisible by head count")
	}
	return &MultiHeadAttention{
		D: d, H: h,
		WQ: NewLinear(rng, d, d), WK: NewLinear(rng, d, d),
		WV: NewLinear(rng, d, d), WO: NewLinear(rng, d, d),
	}
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*Param {
	out := append([]*Param{}, m.WQ.Params()...)
	out = append(out, m.WK.Params()...)
	out = append(out, m.WV.Params()...)
	out = append(out, m.WO.Params()...)
	return out
}

// Forward computes self-attention for x [B, T, D], returning [B, T, D].
func (m *MultiHeadAttention) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	b, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	m.batch, m.seq = b, t
	flat := ws.View(x, b*t, d)
	m.q = m.WQ.Forward(ws, flat)
	m.k = m.WK.Forward(ws, flat)
	m.v = m.WV.Forward(ws, flat)

	ctx := ws.New(b*t, d)
	m.attn = ws.New(b*m.H, t, t)
	// (batch, head) pairs are independent: each writes its own attn matrix
	// and a disjoint column block of ctx, so the fan-out is bit-identical
	// to the serial loop. Scores and context are t·t·d multiply-adds each.
	p, work := tensor.DefaultPool(), 2*b*t*t*d
	if p.Inline(b*m.H, work) {
		m.forwardUnits(ctx, 0, b*m.H)
	} else {
		p.ParallelFor(b*m.H, work, func(u0, u1 int) { m.forwardUnits(ctx, u0, u1) })
	}
	return ws.View(m.WO.Forward(ws, ctx), b, t, d)
}

func (m *MultiHeadAttention) forwardUnits(ctx *tensor.Tensor, u0, u1 int) {
	t, d := m.seq, m.D
	hd := d / m.H
	scale := 1 / math.Sqrt(float64(hd))
	for u := u0; u < u1; u++ {
		bi, h := u/m.H, u%m.H
		off := h * hd
		// scores[t1][t2] = q(bi,t1,h)·k(bi,t2,h)·scale
		a := m.attn.Data[u*t*t : (u+1)*t*t]
		for t1 := 0; t1 < t; t1++ {
			qrow := m.q.Data[(bi*t+t1)*d+off : (bi*t+t1)*d+off+hd]
			maxs := math.Inf(-1)
			for t2 := 0; t2 < t; t2++ {
				krow := m.k.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				s := 0.0
				for j := 0; j < hd; j++ {
					s += qrow[j] * krow[j]
				}
				s *= scale
				a[t1*t+t2] = s
				if s > maxs {
					maxs = s
				}
			}
			// softmax row
			sum := 0.0
			for t2 := 0; t2 < t; t2++ {
				e := math.Exp(a[t1*t+t2] - maxs)
				a[t1*t+t2] = e
				sum += e
			}
			for t2 := 0; t2 < t; t2++ {
				a[t1*t+t2] /= sum
			}
			// context = Σ attn·v
			crow := ctx.Data[(bi*t+t1)*d+off : (bi*t+t1)*d+off+hd]
			for t2 := 0; t2 < t; t2++ {
				w := a[t1*t+t2]
				vrow := m.v.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				for j := 0; j < hd; j++ {
					crow[j] += w * vrow[j]
				}
			}
		}
	}
}

// Backward propagates dL/dy [B, T, D] through attention, accumulating all
// projection gradients, and returns dL/dx [B, T, D].
func (m *MultiHeadAttention) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	b, t, d := m.batch, m.seq, m.D

	dctx := m.WO.Backward(ws, ws.View(dy, b*t, d))

	dq := ws.New(b*t, d)
	dk := ws.New(b*t, d)
	dv := ws.New(b*t, d)
	dattn := ws.New(b*m.H, t) // one row of scratch per (batch, head)

	// Like Forward, (batch, head) pairs touch disjoint column blocks of
	// dq/dk/dv, so they fan out across the pool bit-identically.
	p, work := tensor.DefaultPool(), 4*b*t*t*d
	if p.Inline(b*m.H, work) {
		m.backwardUnits(dctx, dq, dk, dv, dattn, 0, b*m.H)
	} else {
		p.ParallelFor(b*m.H, work, func(u0, u1 int) { m.backwardUnits(dctx, dq, dk, dv, dattn, u0, u1) })
	}

	dx := m.WQ.Backward(ws, dq)
	dx.AddScaled(1, m.WK.Backward(ws, dk))
	dx.AddScaled(1, m.WV.Backward(ws, dv))
	return ws.View(dx, b, t, d)
}

func (m *MultiHeadAttention) backwardUnits(dctx, dq, dk, dv, scratch *tensor.Tensor, u0, u1 int) {
	t, d := m.seq, m.D
	hd := d / m.H
	scale := 1 / math.Sqrt(float64(hd))
	for u := u0; u < u1; u++ {
		bi, h := u/m.H, u%m.H
		off := h * hd
		a := m.attn.Data[u*t*t : (u+1)*t*t]
		dattn := scratch.Data[u*t : (u+1)*t]
		for t1 := 0; t1 < t; t1++ {
			dcrow := dctx.Data[(bi*t+t1)*d+off : (bi*t+t1)*d+off+hd]
			// dattn[t2] = dctx·v(t2); dv(t2) += attn[t1][t2]·dctx
			for t2 := 0; t2 < t; t2++ {
				vrow := m.v.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				dvrow := dv.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				w := a[t1*t+t2]
				s := 0.0
				for j := 0; j < hd; j++ {
					s += dcrow[j] * vrow[j]
					dvrow[j] += w * dcrow[j]
				}
				dattn[t2] = s
			}
			// Softmax backward: ds = attn ∘ (dattn - Σ attn∘dattn).
			dot := 0.0
			for t2 := 0; t2 < t; t2++ {
				dot += a[t1*t+t2] * dattn[t2]
			}
			for t2 := 0; t2 < t; t2++ {
				ds := a[t1*t+t2] * (dattn[t2] - dot) * scale
				qrow := m.q.Data[(bi*t+t1)*d+off : (bi*t+t1)*d+off+hd]
				krow := m.k.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				dqrow := dq.Data[(bi*t+t1)*d+off : (bi*t+t1)*d+off+hd]
				dkrow := dk.Data[(bi*t+t2)*d+off : (bi*t+t2)*d+off+hd]
				for j := 0; j < hd; j++ {
					dqrow[j] += ds * krow[j]
					dkrow[j] += ds * qrow[j]
				}
			}
		}
	}
}

// TransformerBlock is a pre-norm encoder block: x + MHA(LN(x)), then
// x + FFN(LN(x)) with a 2-layer ReLU feed-forward.
type TransformerBlock struct {
	D     int
	LN1   *LayerNorm
	Attn  *MultiHeadAttention
	LN2   *LayerNorm
	FF1   *Linear
	Act   *Activation
	FF2   *Linear
	batch int
	seq   int
}

// NewTransformerBlock builds a pre-norm transformer encoder block with the
// given model dim, head count and feed-forward width (ReLU feed-forward).
func NewTransformerBlock(rng *rand.Rand, d, heads, ffDim int) *TransformerBlock {
	return NewTransformerBlockAct(rng, d, heads, ffDim, "relu")
}

// NewTransformerBlockAct is NewTransformerBlock with a selectable
// feed-forward activation.
func NewTransformerBlockAct(rng *rand.Rand, d, heads, ffDim int, act string) *TransformerBlock {
	return &TransformerBlock{
		D:   d,
		LN1: NewLayerNorm(d), Attn: NewMultiHeadAttention(rng, d, heads),
		LN2: NewLayerNorm(d), FF1: NewLinear(rng, d, ffDim),
		Act: NewActivation(act), FF2: NewLinear(rng, ffDim, d),
	}
}

// Params implements Module.
func (b *TransformerBlock) Params() []*Param {
	out := append([]*Param{}, b.LN1.Params()...)
	out = append(out, b.Attn.Params()...)
	out = append(out, b.LN2.Params()...)
	out = append(out, b.FF1.Params()...)
	out = append(out, b.FF2.Params()...)
	return out
}

// Forward runs the block on x [B, T, D].
func (b *TransformerBlock) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	bb, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	b.batch, b.seq = bb, t
	flat := ws.View(x, bb*t, d)
	h1 := b.LN1.Forward(ws, flat)
	a := ws.View(b.Attn.Forward(ws, ws.View(h1, bb, t, d)), bb*t, d)
	r1 := ws.New(bb*t, d)
	tensor.AddInto(r1, flat, a)

	h2 := b.LN2.Forward(ws, r1)
	f := b.FF2.Forward(ws, b.Act.Forward(ws, b.FF1.Forward(ws, h2)))
	r2 := ws.New(bb, t, d)
	tensor.AddInto(r2, r1, f)
	return r2
}

// Backward propagates through both residual branches.
func (b *TransformerBlock) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	bb, t, d := b.batch, b.seq, b.D
	dr2 := ws.View(dy, bb*t, d)

	// FFN branch.
	df := b.FF1.Backward(ws, b.Act.Backward(ws, b.FF2.Backward(ws, dr2)))
	dr1 := b.LN2.Backward(ws, df)
	dr1.AddScaled(1, dr2) // residual

	// Attention branch.
	da := ws.View(b.Attn.Backward(ws, ws.View(dr1, bb, t, d)), bb*t, d)
	dx := b.LN1.Backward(ws, da)
	dx.AddScaled(1, dr1) // residual
	return ws.View(dx, bb, t, d)
}
