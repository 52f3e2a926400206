package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// convRef is the direct Conv3D the layer ran before it became a block
// matmul: the old strided loops at stride = k, no padding. It returns the
// forward output and the dx, dW and dB of one backward from zero
// gradients, with dW and dB summed as per-item partials in batch order.
func convRef(x, w, bias, dy *tensor.Tensor, k int) (y, dx, dw, db []float64) {
	b, ci, dd, hh, ww := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	co, od, oh, ow := w.Dim(0), dd/k, hh/k, ww/k
	xd, wd, dyd := x.Data, w.Data, dy.Data
	y, dx, dw, db = make([]float64, dy.Len()), make([]float64, x.Len()), make([]float64, w.Len()), make([]float64, co)
	xAt := func(bi, cin, zd, zh, zw, kd, kh, kw int) int {
		return (((bi*ci+cin)*dd+zd*k+kd)*hh+zh*k+kh)*ww + zw*k + kw
	}
	wAt := func(o, cin, kd, kh, kw int) int { return (((o*ci+cin)*k+kd)*k+kh)*k + kw }
	for bi := 0; bi < b; bi++ {
		for o := 0; o < co; o++ {
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						sum := bias.Data[o]
						for cin := 0; cin < ci; cin++ {
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									for kw := 0; kw < k; kw++ {
										sum += xd[xAt(bi, cin, zd, zh, zw, kd, kh, kw)] * wd[wAt(o, cin, kd, kh, kw)]
									}
								}
							}
						}
						y[(((bi*co+o)*od+zd)*oh+zh)*ow+zw] = sum
					}
				}
			}
		}
	}
	for bi := 0; bi < b; bi++ {
		wg, bg := make([]float64, w.Len()), make([]float64, co)
		for o := 0; o < co; o++ {
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						g := dyd[(((bi*co+o)*od+zd)*oh+zh)*ow+zw]
						if g == 0 {
							continue
						}
						bg[o] += g
						for cin := 0; cin < ci; cin++ {
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									for kw := 0; kw < k; kw++ {
										xi, wi := xAt(bi, cin, zd, zh, zw, kd, kh, kw), wAt(o, cin, kd, kh, kw)
										wg[wi] += g * xd[xi]
										dx[xi] += g * wd[wi]
									}
								}
							}
						}
					}
				}
			}
		}
		addRef(dw, wg)
		addRef(db, bg)
	}
	return y, dx, dw, db
}

// convTransposeRef is the direct 2×2×2, stride-2 transposed convolution
// the layer ran before it became a block matmul, returned as convRef
// returns its results.
func convTransposeRef(x, w, bias, dy *tensor.Tensor) (y, dx, dw, db []float64) {
	const k = 2
	b, ci, dd, hh, ww := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	co, od, oh, ow := w.Dim(1), k*dd, k*hh, k*ww
	xd, wd, dyd := x.Data, w.Data, dy.Data
	y, dx, dw, db = make([]float64, dy.Len()), make([]float64, x.Len()), make([]float64, w.Len()), make([]float64, co)
	yAt := func(bi, o, zd, zh, zw, kd, kh, kw int) int {
		return (((bi*co+o)*od+zd*k+kd)*oh+zh*k+kh)*ow + zw*k + kw
	}
	wAt := func(cin, o, kd, kh, kw int) int { return (((cin*co+o)*k+kd)*k+kh)*k + kw }
	for i := range y {
		y[i] = bias.Data[i/(od*oh*ow)%co]
	}
	for bi := 0; bi < b; bi++ {
		for cin := 0; cin < ci; cin++ {
			for zd := 0; zd < dd; zd++ {
				for zh := 0; zh < hh; zh++ {
					for zw := 0; zw < ww; zw++ {
						xv := xd[(((bi*ci+cin)*dd+zd)*hh+zh)*ww+zw]
						if xv == 0 {
							continue
						}
						for o := 0; o < co; o++ {
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									for kw := 0; kw < k; kw++ {
										y[yAt(bi, o, zd, zh, zw, kd, kh, kw)] += xv * wd[wAt(cin, o, kd, kh, kw)]
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for bi := 0; bi < b; bi++ {
		wg, bg := make([]float64, w.Len()), make([]float64, co)
		for i, g := range dyd[bi*co*od*oh*ow : (bi+1)*co*od*oh*ow] {
			bg[i/(od*oh*ow)] += g
		}
		for cin := 0; cin < ci; cin++ {
			for zd := 0; zd < dd; zd++ {
				for zh := 0; zh < hh; zh++ {
					for zw := 0; zw < ww; zw++ {
						xi := (((bi*ci+cin)*dd+zd)*hh+zh)*ww + zw
						xv := xd[xi]
						var acc float64
						for o := 0; o < co; o++ {
							for kd := 0; kd < k; kd++ {
								for kh := 0; kh < k; kh++ {
									for kw := 0; kw < k; kw++ {
										g, wi := dyd[yAt(bi, o, zd, zh, zw, kd, kh, kw)], wAt(cin, o, kd, kh, kw)
										acc += g * wd[wi]
										wg[wi] += g * xv
									}
								}
							}
						}
						dx[xi] = acc
					}
				}
			}
		}
		addRef(dw, wg)
		addRef(db, bg)
	}
	return y, dx, dw, db
}

func addRef(dst, part []float64) {
	for i, v := range part {
		dst[i] += v
	}
}

// convCase is one parity shape: batch, channels in and out, kernel side
// (2 for the transposed layer) and input blocks per side.
type convCase struct{ b, ci, co, k, nd, nh, nw int }

// checkConvParity runs both layers at c — serial and on the pool — and
// asserts forward, dx, dW and dB equal convRef/convTransposeRef bit for
// bit. zeroShare/256 of x, dy and the weights are ±0.
func checkConvParity(t *testing.T, c convCase, zeroShare int, seed int64) {
	t.Helper()
	// Conv3D's forward is one [B·V, Ci·k³] · [Ci·k³, Co] matmul: when the
	// fan-out rule splits it, the pool must have run.
	if rows := c.b * c.nd * c.nh * c.nw; !tensor.DefaultPool().Inline(rows, rows*c.ci*c.k*c.k*c.k*c.co) {
		defer pooltest.FannedOut(t, tensor.DefaultPool)()
	}
	rng := rand.New(rand.NewSource(seed))
	fill := func(x *tensor.Tensor) *tensor.Tensor {
		for i := range x.Data {
			switch {
			case rng.Intn(256) < zeroShare:
				x.Data[i] = math.Copysign(0, rng.NormFloat64())
			case rng.Intn(8) == 0:
				x.Data[i] = rng.NormFloat64() * 1e8
			default:
				x.Data[i] = rng.NormFloat64()
			}
		}
		return x
	}
	k := c.k
	conv := NewConv3D(rng, c.ci, c.co, k)
	fill(conv.W.W)
	conv.B.W = tensor.Randn(rng, 1, c.co)
	x := fill(tensor.New(c.b, c.ci, c.nd*k, c.nh*k, c.nw*k))
	dy := fill(tensor.New(c.b, c.co, c.nd, c.nh, c.nw))
	y, dx, dw, db := convRef(x, conv.W.W, conv.B.W, dy, k)
	sameAsRef(t, "Conv3D", conv, x, dy, y, dx, dw, db)

	tr := NewConvTranspose3D(rng, c.ci, c.co)
	fill(tr.W.W)
	tr.B.W = tensor.Randn(rng, 1, c.co)
	x = fill(tensor.New(c.b, c.ci, c.nd, c.nh, c.nw))
	dy = fill(tensor.New(c.b, c.co, 2*c.nd, 2*c.nh, 2*c.nw))
	y, dx, dw, db = convTransposeRef(x, tr.W.W, tr.B.W, dy)
	sameAsRef(t, "ConvTranspose3D", tr, x, dy, y, dx, dw, db)
}

type convLayer interface {
	Module
	Forward(*tensor.Workspace, *tensor.Tensor) *tensor.Tensor
	Backward(*tensor.Workspace, *tensor.Tensor) *tensor.Tensor
}

func sameAsRef(t *testing.T, name string, l convLayer, x, dy *tensor.Tensor, y, dx, dw, db []float64) {
	t.Helper()
	for _, parallel := range []bool{false, true} {
		tensor.SetParallel(parallel)
		ZeroGrads(l)
		var ws tensor.Workspace
		bitsEqual(t, name+" forward", l.Forward(&ws, x).Data, y)
		bitsEqual(t, name+" dx", l.Backward(&ws, dy).Data, dx)
		bitsEqual(t, name+" dW", l.Params()[0].Grad.Data, dw)
		bitsEqual(t, name+" dB", l.Params()[1].Grad.Data, db)
	}
	tensor.SetParallel(true)
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConvMatchesReference pins both layers to their references at the
// shapes the models and the benchmark run, with zeros in x, dy and W; the
// fourth splits on the pool.
func TestConvMatchesReference(t *testing.T) {
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	for i, c := range []convCase{
		{b: 8, ci: 4, co: 4, k: 2, nd: 4, nh: 4, nw: 4}, // CNN-Transformer conv1 at G = 8, decoder 4³ → 8³
		{b: 8, ci: 4, co: 8, k: 2, nd: 2, nh: 2, nw: 2}, // conv2, decoder seed 2³ → 4³
		{b: 8, ci: 4, co: 4, k: 4, nd: 2, nh: 2, nw: 2}, // MATEY's coarse branch
		{b: 4, ci: 4, co: 8, k: 2, nd: 8, nh: 8, nw: 8}, // BenchmarkConv3DForwardBackward
		{b: 3, ci: 5, co: 3, k: 4, nd: 3, nh: 1, nw: 2},
	} {
		checkConvParity(t, c, 64, int64(i+1))
	}
}

// FuzzConvParity checks Conv3D and ConvTranspose3D against convRef and
// convTransposeRef, bit for bit, serially and on a 4-worker pool: B 1–4,
// channels 1–6, k ∈ {2, 4}, 1–3 blocks per side, any share of ±0 in x, dy
// and the weights. The fourth seed (B 4, channels 6, k 4, 3³ blocks) is past
// the fan-out threshold.
func FuzzConvParity(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), uint8(0), uint8(2), uint8(2), uint8(2), uint8(64), int64(1))
	f.Add(uint8(3), uint8(5), uint8(5), uint8(1), uint8(2), uint8(2), uint8(2), uint8(64), int64(4))
	f.Add(uint8(0), uint8(5), uint8(0), uint8(1), uint8(0), uint8(1), uint8(2), uint8(255), int64(2))
	f.Add(uint8(1), uint8(0), uint8(5), uint8(1), uint8(2), uint8(0), uint8(1), uint8(0), int64(3))
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	f.Fuzz(func(t *testing.T, b, ci, co, k, nd, nh, nw, zeroShare uint8, seed int64) {
		c := convCase{b: int(b)%4 + 1, ci: int(ci)%6 + 1, co: int(co)%6 + 1, k: 2 << (k % 2),
			nd: int(nd)%3 + 1, nh: int(nh)%3 + 1, nw: int(nw)%3 + 1}
		checkConvParity(t, c, int(zeroShare), seed)
	})
}

// TestTransformerBitIdenticalSerialVsParallel: a transformer block's
// forward, backward and Adam step, and Adam on a 256×256 linear layer, give
// the same bits serially and on a 4-worker pool, at a shape where the
// LayerNorms (1,024 rows of 64), the attention (128 batch-head units of
// 32×32 scores), the block's matmuls and Adam on the linear weight all split
// under the fan-out rule.
func TestTransformerBitIdenticalSerialVsParallel(t *testing.T) {
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	const b, seq, d, heads, ff = 32, 32, 64, 4, 64
	run := func(parallel bool) [][]float64 {
		tensor.SetParallel(parallel)
		defer tensor.SetParallel(true)
		rng := rand.New(rand.NewSource(5))
		blk, lin := NewTransformerBlock(rng, d, heads, ff), NewLinear(rng, 256, 256)
		x, dy := tensor.Randn(rng, 1, b, seq, d), tensor.Randn(rng, 1, b, seq, d)
		lin.W.Grad, lin.B.Grad = tensor.Randn(rng, 1, 256, 256), tensor.Randn(rng, 1, 256)
		var ws tensor.Workspace
		out := [][]float64{blk.Forward(&ws, x).Clone().Data, blk.Backward(&ws, dy).Clone().Data}
		NewAdam(1e-3).Step(blk)
		NewAdam(1e-3).Step(lin)
		for _, p := range append(blk.Params(), lin.Params()...) {
			out = append(out, p.W.Data)
		}
		return out
	}
	want := run(false)
	fannedOut := pooltest.FannedOut(t, tensor.DefaultPool)
	got := run(true)
	fannedOut()
	for i := range want {
		bitsEqual(t, fmt.Sprintf("output %d", i), got[i], want[i])
	}
}

// TestConvRejectsPartialBlocks: a spatial size that is not a multiple of
// the kernel panics, as a channel mismatch does.
func TestConvRejectsPartialBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Conv3D with k = 2 accepted a height of 3")
		}
	}()
	NewConv3D(rand.New(rand.NewSource(1)), 1, 1, 2).Forward(new(tensor.Workspace), tensor.New(1, 1, 4, 3, 4))
}
