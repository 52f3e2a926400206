package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Conv3D is the patch encoder of the paper's CNN-Transformer and MATEY
// (Table 2): a 3-D convolution over [B, Ci, D, H, W] with a K³ kernel on
// non-overlapping blocks (k = stride, no padding; D, H and W multiples of
// K). It is a block matmul: one row per K³ block times the weight on the
// tensor kernels, so each output cell takes the bias, then its adds in
// (ci, kd, kh, kw) order, serial or pooled alike.
type Conv3D struct {
	Ci, Co, K int
	W         *Param // [Co, Ci, K, K, K]
	B         *Param // [Co]
	x         *tensor.Tensor
}

// NewConv3D builds a Glorot-initialized convolution over k³ blocks.
func NewConv3D(rng *rand.Rand, ci, co, k int) *Conv3D {
	w := tensor.Rand(rng, xavier(ci*k*k*k, co*k*k*k), co, ci, k, k, k)
	return &Conv3D{Ci: ci, Co: co, K: k,
		W: NewParam("conv3d.w", w), B: NewParam("conv3d.b", tensor.New(co))}
}

// Params implements Module.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward computes y [B, Co, D/K, H/K, W/K].
func (c *Conv3D) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	if x.Dim(1) != c.Ci {
		panic("nn: Conv3D channel mismatch")
	}
	c.x = x
	k, cols := c.K, c.W.W.Len()/c.Co
	y := ws.New(x.Dim(0), c.Co, x.Dim(2)/k, x.Dim(3)/k, x.Dim(4)/k)
	rows := y.Len() / c.Co
	s := takeScratch()
	defer giveScratch(s)
	p := s.New(rows, cols)
	blocks(x, p.Data, k, true)
	wt := s.New(cols, c.Co)
	for o, w := range c.W.W.Data {
		wt.Data[o%cols*c.Co+o/cols] = w
	}
	yb := s.New(rows, c.Co)
	copy(yb.Data, c.B.W.Data)
	tile(yb.Data, c.Co)
	tensor.MatMulAccum(yb, p, wt)
	blocks(y, yb.Data, 1, false)
	return y
}

// Backward propagates dL/dy and accumulates kernel/bias grads: dx is the
// block matmul dy·W scattered back into place.
func (c *Conv3D) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	cols, rows := c.W.W.Len()/c.Co, dy.Len()/c.Co
	s := takeScratch()
	defer giveScratch(s)
	dyb := s.New(rows, c.Co)
	blocks(dy, dyb.Data, 1, true)
	dxb := s.New(rows, cols)
	tensor.MatMulAccum(dxb, dyb, s.View(c.W.W, c.Co, cols))
	dx := ws.New(c.x.Shape...)
	blocks(dx, dxb.Data, c.K, false)
	blocks(c.x, dxb.Data, c.K, true) // dxb is free again: x's blocks, for dW
	addItemGrads(s, c.W, c.B, dy.Data, dxb.Data, dy.Data, c.x.Dim(0), cols)
	return dx
}

// ConvTranspose3D is the transposed 3-D convolution of the paper's cube
// decoders: a 2×2×2 kernel at stride 2, no padding, so input [B, Ci, D, H,
// W] → output [B, Co, 2D, 2H, 2W] with each input voxel filling its own 2³
// block. It is a block matmul: voxel rows [B·V, Ci] times the weight as
// [Ci, Co·8] on the tensor kernels, each row then scattered into its block.
type ConvTranspose3D struct {
	Ci, Co int
	W      *Param // [Ci, Co, 2, 2, 2]
	B      *Param // [Co]
	x      *tensor.Tensor
}

// NewConvTranspose3D builds a Glorot-initialized transposed convolution.
func NewConvTranspose3D(rng *rand.Rand, ci, co int) *ConvTranspose3D {
	w := tensor.Rand(rng, xavier(ci*8, co*8), ci, co, 2, 2, 2)
	return &ConvTranspose3D{Ci: ci, Co: co,
		W: NewParam("convt3d.w", w), B: NewParam("convt3d.b", tensor.New(co))}
}

// Params implements Module.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward computes the transposed convolution: every output cell takes
// the bias, then one add per input channel in channel order, skipping a
// zero input.
func (c *ConvTranspose3D) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	if x.Dim(1) != c.Ci {
		panic("nn: ConvTranspose3D channel mismatch")
	}
	c.x = x
	rows, cols := x.Len()/c.Ci, c.Co*8
	s := takeScratch()
	defer giveScratch(s)
	xt := s.New(rows, c.Ci)
	blocks(x, xt.Data, 1, true)
	yb := s.New(rows, cols)
	for j := range cols {
		yb.Data[j] = c.B.W.Data[j/8]
	}
	tile(yb.Data, cols)
	tensor.MatMulAccum(yb, xt, s.View(c.W.W, c.Ci, cols))
	y := ws.New(x.Dim(0), c.Co, 2*x.Dim(2), 2*x.Dim(3), 2*x.Dim(4))
	blocks(y, yb.Data, 2, false)
	return y
}

// Backward propagates dL/dy and accumulates grads: dx is the block matmul
// dY·Wᵀ.
func (c *ConvTranspose3D) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	rows, cols := c.x.Len()/c.Ci, c.Co*8
	s := takeScratch()
	defer giveScratch(s)
	dyb := s.New(rows, cols)
	blocks(dy, dyb.Data, 2, true)
	dxt := s.New(rows, c.Ci)
	tensor.MatMulTransBAccum(dxt, dyb, s.View(c.W.W, c.Ci, cols))
	dx := ws.New(c.x.Shape...)
	blocks(dx, dxt.Data, 1, false)
	addItemGrads(s, c.W, c.B, c.x.Data, dyb.Data, dy.Data, c.x.Dim(0), cols)
	return dx
}

// addItemGrads adds a batch's kernel and bias gradients to w and bias one
// item at a time, each partial from zero, in batch order. Item bi's kernel
// partial is a_bi·rows_bi — a channel-major a [B, R, V] times block rows
// [B·V, cols], one MatMulAccum per item (a zero in a adds nothing); its
// bias partial has the sums of dy's channels. The three matmul headers
// come from the workspace once and are re-pointed at each item, so no
// item allocates.
func addItemGrads(s *tensor.Workspace, w, bias *Param, a, rows, dy []float64, b, cols int) {
	wl, co := w.Grad.Len(), bias.Grad.Len()
	r, v, n := wl/cols, len(rows)/(b*cols), len(dy)/(b*co)
	part := s.New(wl + co).Data
	pw := s.View(&tensor.Tensor{Data: part[:wl]}, r, cols)
	ai := s.View(&tensor.Tensor{Data: a[:r*v]}, r, v)
	ri := s.View(&tensor.Tensor{Data: rows[:v*cols]}, v, cols)
	for bi := 0; bi < b; bi++ {
		clear(part)
		ai.Data = a[bi*r*v : (bi+1)*r*v]
		ri.Data = rows[bi*v*cols : (bi+1)*v*cols]
		tensor.MatMulAccum(pw, ai, ri)
		for i, g := range dy[bi*co*n : (bi+1)*co*n] {
			part[wl+i/n] += g
		}
		for i, p := range part[:wl] {
			w.Grad.Data[i] += p
		}
		for i, p := range part[wl:] {
			bias.Grad.Data[i] += p
		}
	}
}

// blocks moves data between a channel-major cube [B, C, D, H, W] and its
// block-major form rows [B·V, C·k³], V = (D/k)(H/k)(W/k): one row per k³
// block, blocks in (d, h, w) order, columns in the weights' (c, kd, kh, kw)
// order. gather copies the cube into rows, otherwise rows are scattered
// into the cube. With k = 1 it is the transpose [B, C, V] ↔ [B·V, C].
func blocks(cube *tensor.Tensor, rows []float64, k int, gather bool) {
	c, d, h, w := cube.Dim(1), cube.Dim(2), cube.Dim(3), cube.Dim(4)
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic("nn: convolution spatial size is not a multiple of the kernel")
	}
	cols, line := c*k*k*k, cube.Data
	for p := 0; len(line) > 0; p++ { // p = (item, channel)
		for id := 0; id < d; id++ {
			row, col := (p/c*(d/k)+id/k)*(h/k), (p%c*k+id%k)*k
			for ih := 0; ih < h; ih++ {
				// W-line (p, id, ih) starts at row (id/k, ih/k, 0), column (id%k, ih%k, 0).
				at := (row+ih/k)*(w/k)*cols + (col+ih%k)*k
				for iw := 0; iw < w; iw, at = iw+k, at+cols {
					for kw := range k {
						if gather {
							rows[at+kw] = line[iw+kw]
						} else {
							line[iw+kw] = rows[at+kw]
						}
					}
				}
				line = line[w:]
			}
		}
	}
}

// tile fills dst with repeats of its first n values.
func tile(dst []float64, n int) {
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// scratches is a free list of workspaces for the block-major matrices of
// one convolution pass, which live only inside one Forward or Backward: on
// the model's own workspace, every new model would pay for a copy of its
// largest activations. It keeps up to four, since a pass holds one and a
// host runs about as many passes at once as it has cores; a sync.Pool lost
// them too often (to GC cycles and to its per-P slots).
var scratches = make(chan *tensor.Workspace, 4)

// takeScratch returns a reset workspace from the free list, or a new one.
func takeScratch() *tensor.Workspace {
	select {
	case s := <-scratches:
		s.Reset()
		return s
	default:
		return new(tensor.Workspace)
	}
}

// giveScratch returns s to the free list, or drops it when the list is full.
func giveScratch(s *tensor.Workspace) {
	select {
	case scratches <- s:
	default:
	}
}
