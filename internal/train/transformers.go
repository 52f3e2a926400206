package train

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// cubeDecoder upsamples a per-timestep latent vector to a dense cube
// [C', G, G, G] through a linear seed plus stacked ConvTranspose3D layers
// (2³ blocks: block matmul, k = stride = 2, no padding), the paper's
// ConvTranspose3D decoder.
type cubeDecoder struct {
	seedDim, seedCh, outCh, outG int
	lin                          *nn.Linear
	ups                          []*nn.ConvTranspose3D
	acts                         []*nn.Activation
	bt                           int
}

// newCubeDecoder targets a G³ output cube with outCh channels from latent
// dimension d. G must be seed·2^k for the 2³ seed (G ∈ {4, 8, 16, 32, ...}).
func newCubeDecoder(rng *rand.Rand, d, outCh, outG int) *cubeDecoder {
	seed := 2
	levels := 0
	for g := seed; g < outG; g *= 2 {
		levels++
	}
	if seed<<levels != outG {
		panic(fmt.Sprintf("train: decoder output size %d must be 2·2^k", outG))
	}
	ch := 8
	dec := &cubeDecoder{seedDim: d, seedCh: ch, outCh: outCh, outG: outG,
		lin: nn.NewLinear(rng, d, ch*seed*seed*seed)}
	cur := ch
	for l := 0; l < levels; l++ {
		next := cur / 2
		if next < outCh || l == levels-1 {
			next = outCh
		}
		dec.ups = append(dec.ups, nn.NewConvTranspose3D(rng, cur, next))
		if l < levels-1 {
			dec.acts = append(dec.acts, nn.NewActivation("relu"))
		} else {
			dec.acts = append(dec.acts, nil)
		}
		cur = next
	}
	return dec
}

// Params implements nn.Module.
func (d *cubeDecoder) Params() []*nn.Param {
	out := d.lin.Params()
	for _, u := range d.ups {
		out = append(out, u.Params()...)
	}
	return out
}

// forward maps z [BT, D] to [BT, C', G, G, G].
func (d *cubeDecoder) forward(ws *tensor.Workspace, z *tensor.Tensor) *tensor.Tensor {
	d.bt = z.Dim(0)
	cur := ws.View(d.lin.Forward(ws, z), d.bt, d.seedCh, 2, 2, 2)
	for l, u := range d.ups {
		cur = u.Forward(ws, cur)
		if d.acts[l] != nil {
			cur = d.acts[l].Forward(ws, cur)
		}
	}
	return cur
}

// backward consumes dL/dout and returns dL/dz.
func (d *cubeDecoder) backward(ws *tensor.Workspace, dy *tensor.Tensor) *tensor.Tensor {
	cur := dy
	for l := len(d.ups) - 1; l >= 0; l-- {
		if d.acts[l] != nil {
			cur = d.acts[l].Backward(ws, cur)
		}
		cur = d.ups[l].Backward(ws, cur)
	}
	return d.lin.Backward(ws, ws.View(cur, d.bt, d.seedCh*8))
}

// MLPTransformer is the sample-full architecture of Table 2: unstructured
// subsampled points [B, T, C, N] are embedded point-wise by an MLP encoder,
// mean-pooled per timestep, passed through a transformer encoder over time,
// and decoded to dense cubes [B, T, C', G, G, G].
type MLPTransformer struct {
	scratch
	InVars, NPoints, ModelDim, OutVars, OutG int
	enc1, enc2                               *nn.Linear
	encAct                                   *nn.Activation
	block                                    *nn.TransformerBlock
	dec                                      *cubeDecoder
	b, t                                     int
}

// NewMLPTransformer builds the MLP-encoder/transformer/CNN-decoder stack.
func NewMLPTransformer(rng *rand.Rand, inVars, modelDim, heads, outVars, outG int) *MLPTransformer {
	m := &MLPTransformer{
		InVars: inVars, ModelDim: modelDim, OutVars: outVars, OutG: outG,
		enc1:   nn.NewLinear(rng, inVars, modelDim),
		encAct: nn.NewActivation("relu"),
		enc2:   nn.NewLinear(rng, modelDim, modelDim),
		block:  nn.NewTransformerBlock(rng, modelDim, heads, 2*modelDim),
		dec:    newCubeDecoder(rng, modelDim, outVars, outG),
	}
	m.params = paramsOf(m.enc1, m.enc2, m.block, m.dec)
	return m
}

// Name implements Model.
func (m *MLPTransformer) Name() string { return "MLP_Transformer" }

// Forward maps x [B, T, N, C] to [B, T, C', G, G, G].
// (Point-major layout: N points each with C features.)
func (m *MLPTransformer) Forward(x *tensor.Tensor) *tensor.Tensor {
	ws := &m.ws
	ws.Reset()
	b, t, n, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m.b, m.t, m.NPoints = b, t, n
	flatPts := ws.View(x, b*t*n, c)
	emb := m.enc2.Forward(ws, m.encAct.Forward(ws, m.enc1.Forward(ws, flatPts))) // [B*T*N, D]
	// Mean-pool over points.
	pooled := ws.New(b, t, m.ModelDim)
	inv := 1 / float64(n)
	for row := 0; row < b*t; row++ {
		dst := pooled.Data[row*m.ModelDim : (row+1)*m.ModelDim]
		for p := 0; p < n; p++ {
			src := emb.Data[(row*n+p)*m.ModelDim : (row*n+p+1)*m.ModelDim]
			for j := range dst {
				dst[j] += src[j] * inv
			}
		}
	}
	z := ws.View(m.block.Forward(ws, pooled), b*t, m.ModelDim)
	cube := m.dec.forward(ws, z) // [B*T, C', G, G, G]
	return ws.View(cube, b, t, m.OutVars, m.OutG, m.OutG, m.OutG)
}

// Backward implements Model.
func (m *MLPTransformer) Backward(dy *tensor.Tensor) {
	ws := &m.ws
	b, t, n := m.b, m.t, m.NPoints
	dz := m.dec.backward(ws, ws.View(dy, b*t, m.OutVars, m.OutG, m.OutG, m.OutG))
	dpooled := m.block.Backward(ws, ws.View(dz, b, t, m.ModelDim)) // read below as [B*T, D]
	// Un-pool: each point receives dpooled/n.
	demb := ws.New(b*t*n, m.ModelDim)
	inv := 1 / float64(n)
	for row := 0; row < b*t; row++ {
		src := dpooled.Data[row*m.ModelDim : (row+1)*m.ModelDim]
		for p := 0; p < n; p++ {
			dst := demb.Data[(row*n+p)*m.ModelDim : (row*n+p+1)*m.ModelDim]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
	m.enc1.Backward(ws, m.encAct.Backward(ws, m.enc2.Backward(ws, demb)))
}

// CNNTransformer is the full-full architecture of Table 2: dense hypercubes
// [B, T, C, G, G, G] are encoded with Conv3D patch layers (2³ blocks),
// passed through a transformer encoder over time, and decoded back to
// cubes.
type CNNTransformer struct {
	scratch
	InVars, ModelDim, OutVars, G int
	conv1, conv2                 *nn.Conv3D
	act1, act2                   *nn.Activation
	toLatent                     *nn.Linear
	block                        *nn.TransformerBlock
	dec                          *cubeDecoder
	b, t, flatDim, encG          int
}

// NewCNNTransformer builds the Conv3D/transformer/ConvTranspose3D stack for
// G³ cubes (G a power of two ≥ 8).
func NewCNNTransformer(rng *rand.Rand, inVars, modelDim, heads, outVars, g int) *CNNTransformer {
	c1 := nn.NewConv3D(rng, inVars, 4, 2) // G -> G/2
	c2 := nn.NewConv3D(rng, 4, 8, 2)      // G/2 -> G/4
	encG := g / 4
	flat := 8 * encG * encG * encG
	m := &CNNTransformer{
		InVars: inVars, ModelDim: modelDim, OutVars: outVars, G: g,
		conv1: c1, act1: nn.NewActivation("relu"),
		conv2: c2, act2: nn.NewActivation("relu"),
		toLatent: nn.NewLinear(rng, flat, modelDim),
		block:    nn.NewTransformerBlock(rng, modelDim, heads, 2*modelDim),
		dec:      newCubeDecoder(rng, modelDim, outVars, g),
		flatDim:  flat, encG: encG,
	}
	m.params = paramsOf(m.conv1, m.conv2, m.toLatent, m.block, m.dec)
	return m
}

// Name implements Model.
func (m *CNNTransformer) Name() string { return "CNN_Transformer" }

// Forward maps x [B, T, C, G, G, G] to [B, T, C', G, G, G].
func (m *CNNTransformer) Forward(x *tensor.Tensor) *tensor.Tensor {
	ws := &m.ws
	ws.Reset()
	b, t := x.Dim(0), x.Dim(1)
	m.b, m.t = b, t
	g := m.G
	h := ws.View(x, b*t, m.InVars, g, g, g)
	h = m.act1.Forward(ws, m.conv1.Forward(ws, h))
	h = m.act2.Forward(ws, m.conv2.Forward(ws, h))
	z := m.toLatent.Forward(ws, ws.View(h, b*t, m.flatDim))
	z = ws.View(m.block.Forward(ws, ws.View(z, b, t, m.ModelDim)), b*t, m.ModelDim)
	cube := m.dec.forward(ws, z)
	return ws.View(cube, b, t, m.OutVars, g, g, g)
}

// Backward implements Model.
func (m *CNNTransformer) Backward(dy *tensor.Tensor) {
	ws := &m.ws
	b, t, g := m.b, m.t, m.G
	dz := m.dec.backward(ws, ws.View(dy, b*t, m.OutVars, g, g, g))
	dz = ws.View(m.block.Backward(ws, ws.View(dz, b, t, m.ModelDim)), b*t, m.ModelDim)
	dh := ws.View(m.toLatent.Backward(ws, dz), b*t, 8, m.encG, m.encG, m.encG)
	dh = m.conv2.Backward(ws, m.act2.Backward(ws, dh))
	m.conv1.Backward(ws, m.act1.Backward(ws, dh))
}
