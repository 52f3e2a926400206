package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Conv3D is a 3-D convolution over inputs [B, Ci, D, H, W] with cubic
// kernels, stride and zero padding — the encoder building block of the
// paper's CNN-Transformer (Table 2). Forward fans (batch, out-channel)
// pairs across the kernel pool; Backward fans batch items with per-item
// gradient partials combined in batch order, so parallel and serial runs
// are bit-identical.
type Conv3D struct {
	Ci, Co, K, Stride, Pad int
	W                      *Param // [Co, Ci, K, K, K]
	B                      *Param // [Co]
	x                      *tensor.Tensor
}

// NewConv3D builds a Glorot-initialized 3-D convolution.
func NewConv3D(rng *rand.Rand, ci, co, k, stride, pad int) *Conv3D {
	fanIn := ci * k * k * k
	fanOut := co * k * k * k
	w := tensor.Rand(rng, xavier(fanIn, fanOut), co, ci, k, k, k)
	return &Conv3D{Ci: ci, Co: co, K: k, Stride: stride, Pad: pad,
		W: NewParam("conv3d.w", w), B: NewParam("conv3d.b", tensor.New(co))}
}

// Params implements Module.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// OutDim returns the output spatial size for input size n.
func (c *Conv3D) OutDim(n int) int { return (n+2*c.Pad-c.K)/c.Stride + 1 }

// Forward computes y [B, Co, D', H', W'].
func (c *Conv3D) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	b, dd, hh, ww := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	if x.Dim(1) != c.Ci {
		panic("nn: Conv3D channel mismatch")
	}
	y := ws.New(b, c.Co, c.OutDim(dd), c.OutDim(hh), c.OutDim(ww))
	// Each (bi, co) unit writes its own output volume — disjoint.
	p := tensor.DefaultPool()
	if p.Inline(b*c.Co, 1) {
		c.forwardUnits(x, y, 0, b*c.Co)
	} else {
		p.ParallelFor(b*c.Co, 1, func(u0, u1 int) { c.forwardUnits(x, y, u0, u1) })
	}
	return y
}

func (c *Conv3D) forwardUnits(x, y *tensor.Tensor, u0, u1 int) {
	ci, dd, hh, ww := x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	od, oh, ow := y.Dim(2), y.Dim(3), y.Dim(4)
	k, s, p := c.K, c.Stride, c.Pad
	xd, wd, yd, bd := x.Data, c.W.W.Data, y.Data, c.B.W.Data
	for u := u0; u < u1; u++ {
		bi, co := u/c.Co, u%c.Co
		bias := bd[co]
		for zd := 0; zd < od; zd++ {
			for zh := 0; zh < oh; zh++ {
				for zw := 0; zw < ow; zw++ {
					sum := bias
					for cin := 0; cin < ci; cin++ {
						xBase := (bi*ci + cin) * dd
						wBase := ((co*ci + cin) * k) * k * k
						for kd := 0; kd < k; kd++ {
							id := zd*s + kd - p
							if id < 0 || id >= dd {
								continue
							}
							for kh := 0; kh < k; kh++ {
								ih := zh*s + kh - p
								if ih < 0 || ih >= hh {
									continue
								}
								xRow := ((xBase+id)*hh + ih) * ww
								wRow := wBase + (kd*k+kh)*k
								for kw := 0; kw < k; kw++ {
									iw := zw*s + kw - p
									if iw < 0 || iw >= ww {
										continue
									}
									sum += xd[xRow+iw] * wd[wRow+kw]
								}
							}
						}
					}
					yd[(((bi*c.Co+co)*od+zd)*oh+zh)*ow+zw] = sum
				}
			}
		}
	}
}

// Backward propagates dL/dy and accumulates kernel/bias grads. Batch items
// accumulate into per-item partial gradients (rows of two workspace
// tensors, taken before the loop fans out) that are combined in batch
// order — deterministic regardless of worker count.
func (c *Conv3D) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	x := c.x
	b := x.Dim(0)
	dx := ws.New(x.Shape...)
	wParts := ws.New(b, c.W.W.Len())
	bParts := ws.New(b, c.Co)
	p := tensor.DefaultPool()
	if p.Inline(b, 1) {
		c.backwardItems(dy, dx, wParts, bParts, 0, b)
	} else {
		p.ParallelFor(b, 1, func(b0, b1 int) { c.backwardItems(dy, dx, wParts, bParts, b0, b1) })
	}
	addParts(c.W.Grad, wParts)
	addParts(c.B.Grad, bParts)
	return dx
}

// addParts adds the rows of parts [B, len(grad)] to grad in row order.
func addParts(grad, parts *tensor.Tensor) {
	n := grad.Len()
	for bi := 0; bi < parts.Dim(0); bi++ {
		for i, v := range parts.Data[bi*n : (bi+1)*n] {
			grad.Data[i] += v
		}
	}
}

func (c *Conv3D) backwardItems(dy, dx, wParts, bParts *tensor.Tensor, b0, b1 int) {
	x := c.x
	ci, dd, hh, ww := x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	od, oh, ow := dy.Dim(2), dy.Dim(3), dy.Dim(4)
	k, s, p := c.K, c.Stride, c.Pad
	xd, wd, dyd, dxd := x.Data, c.W.W.Data, dy.Data, dx.Data
	wl := c.W.W.Len()
	for bi := b0; bi < b1; bi++ {
		wg := wParts.Data[bi*wl : (bi+1)*wl]
		bg := bParts.Data[bi*c.Co : (bi+1)*c.Co]
		for co := 0; co < c.Co; co++ {
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						g := dyd[(((bi*c.Co+co)*od+zd)*oh+zh)*ow+zw]
						if g == 0 {
							continue
						}
						bg[co] += g
						for cin := 0; cin < ci; cin++ {
							xBase := (bi*ci + cin) * dd
							wBase := ((co*ci + cin) * k) * k * k
							for kd := 0; kd < k; kd++ {
								id := zd*s + kd - p
								if id < 0 || id >= dd {
									continue
								}
								for kh := 0; kh < k; kh++ {
									ih := zh*s + kh - p
									if ih < 0 || ih >= hh {
										continue
									}
									xRow := ((xBase+id)*hh + ih) * ww
									wRow := wBase + (kd*k+kh)*k
									for kw := 0; kw < k; kw++ {
										iw := zw*s + kw - p
										if iw < 0 || iw >= ww {
											continue
										}
										wg[wRow+kw] += g * xd[xRow+iw]
										dxd[xRow+iw] += g * wd[wRow+kw]
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// ConvTranspose3D is the transposed (fractionally strided) 3-D convolution
// used by the paper's decoders: input [B, Ci, D, H, W] → output
// [B, Co, (D-1)·S+K, ...] (no padding). Parallel decomposition mirrors
// Conv3D: batch items are independent units.
type ConvTranspose3D struct {
	Ci, Co, K, Stride int
	W                 *Param // [Ci, Co, K, K, K]
	B                 *Param // [Co]
	x                 *tensor.Tensor
}

// NewConvTranspose3D builds a Glorot-initialized transposed convolution.
func NewConvTranspose3D(rng *rand.Rand, ci, co, k, stride int) *ConvTranspose3D {
	fan := ci * k * k * k
	w := tensor.Rand(rng, xavier(fan, co*k*k*k), ci, co, k, k, k)
	return &ConvTranspose3D{Ci: ci, Co: co, K: k, Stride: stride,
		W: NewParam("convt3d.w", w), B: NewParam("convt3d.b", tensor.New(co))}
}

// Params implements Module.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }

// OutDim returns the output spatial size for input size n.
func (c *ConvTranspose3D) OutDim(n int) int { return (n-1)*c.Stride + c.K }

// Forward computes the transposed convolution.
func (c *ConvTranspose3D) Forward(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	b, dd, hh, ww := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	y := ws.New(b, c.Co, c.OutDim(dd), c.OutDim(hh), c.OutDim(ww))
	// Output volumes are per-batch-item disjoint; scatter-adds from
	// different input cells of the same item stay on one worker.
	p := tensor.DefaultPool()
	if p.Inline(b, 1) {
		c.forwardItems(x, y, 0, b)
	} else {
		p.ParallelFor(b, 1, func(b0, b1 int) { c.forwardItems(x, y, b0, b1) })
	}
	return y
}

func (c *ConvTranspose3D) forwardItems(x, y *tensor.Tensor, b0, b1 int) {
	ci, dd, hh, ww := x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	od, oh, ow := y.Dim(2), y.Dim(3), y.Dim(4)
	k, s := c.K, c.Stride
	xd, wd, yd, bd := x.Data, c.W.W.Data, y.Data, c.B.W.Data
	for bi := b0; bi < b1; bi++ {
		for co := 0; co < c.Co; co++ {
			base := ((bi*c.Co + co) * od) * oh * ow
			bias := bd[co]
			for i := 0; i < od*oh*ow; i++ {
				yd[base+i] = bias
			}
		}
		for cin := 0; cin < ci; cin++ {
			for zd := 0; zd < dd; zd++ {
				for zh := 0; zh < hh; zh++ {
					for zw := 0; zw < ww; zw++ {
						xv := xd[(((bi*ci+cin)*dd+zd)*hh+zh)*ww+zw]
						if xv == 0 {
							continue
						}
						for co := 0; co < c.Co; co++ {
							wBase := ((cin*c.Co + co) * k) * k * k
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									yRow := (((bi*c.Co+co)*od+zd*s+kd)*oh+zh*s+kh)*ow + zw*s
									wRow := wBase + (kd*k+kh)*k
									for kw := 0; kw < k; kw++ {
										yd[yRow+kw] += xv * wd[wRow+kw]
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// Backward propagates dL/dy and accumulates grads, with per-batch-item
// weight-gradient partials combined in batch order (bit-identical serial or
// parallel).
func (c *ConvTranspose3D) Backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	x := c.x
	b := x.Dim(0)
	dx := ws.New(x.Shape...)
	wParts := ws.New(b, c.W.W.Len())
	bParts := ws.New(b, c.Co)
	p := tensor.DefaultPool()
	if p.Inline(b, 1) {
		c.backwardItems(dy, dx, wParts, bParts, 0, b)
	} else {
		p.ParallelFor(b, 1, func(b0, b1 int) { c.backwardItems(dy, dx, wParts, bParts, b0, b1) })
	}
	addParts(c.W.Grad, wParts)
	addParts(c.B.Grad, bParts)
	return dx
}

func (c *ConvTranspose3D) backwardItems(dy, dx, wParts, bParts *tensor.Tensor, b0, b1 int) {
	x := c.x
	ci, dd, hh, ww := x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	od, oh, ow := dy.Dim(2), dy.Dim(3), dy.Dim(4)
	k, s := c.K, c.Stride
	xd, wd, dyd, dxd := x.Data, c.W.W.Data, dy.Data, dx.Data
	wl := c.W.W.Len()
	for bi := b0; bi < b1; bi++ {
		wg := wParts.Data[bi*wl : (bi+1)*wl]
		bg := bParts.Data[bi*c.Co : (bi+1)*c.Co]
		for co := 0; co < c.Co; co++ {
			base := ((bi*c.Co + co) * od) * oh * ow
			for i := 0; i < od*oh*ow; i++ {
				bg[co] += dyd[base+i]
			}
		}
		for cin := 0; cin < ci; cin++ {
			for zd := 0; zd < dd; zd++ {
				for zh := 0; zh < hh; zh++ {
					for zw := 0; zw < ww; zw++ {
						xv := xd[(((bi*ci+cin)*dd+zd)*hh+zh)*ww+zw]
						var acc float64
						for co := 0; co < c.Co; co++ {
							wBase := ((cin*c.Co + co) * k) * k * k
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									yRow := (((bi*c.Co+co)*od+zd*s+kd)*oh+zh*s+kh)*ow + zw*s
									wRow := wBase + (kd*k+kh)*k
									for kw := 0; kw < k; kw++ {
										g := dyd[yRow+kw]
										acc += g * wd[wRow+kw]
										wg[wRow+kw] += g * xv
									}
								}
							}
						}
						dxd[(((bi*ci+cin)*dd+zd)*hh+zh)*ww+zw] = acc
					}
				}
			}
		}
	}
}
