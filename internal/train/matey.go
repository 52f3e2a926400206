package train

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// MATEYModel is the multiscale adaptive foundation-model analogue used for
// the Fig. 9 experiment (Zhang et al., MATEY). It encodes dense cubes
// [B, T, C, G, G, G] through two parallel Conv3D patch branches at
// different block sizes — a coarse context branch and a fine detail
// branch — fuses the latents, runs a transformer encoder over time, and
// decodes to cubes.
// "Adaptive multiscale" here means both spatial resolutions contribute to
// one latent token per timestep.
type MATEYModel struct {
	scratch
	InVars, ModelDim, OutVars, G int
	coarse                       *nn.Conv3D // 4³ blocks: block matmul, k = stride = 4, no padding
	fine                         *nn.Conv3D // 2³ blocks: block matmul, k = stride = 2, no padding
	actC, actF                   *nn.Activation
	fuse                         *nn.Linear
	block                        *nn.TransformerBlock
	dec                          *cubeDecoder
	b, t                         int
	cg, fg, cDim, fDim           int
}

// NewMATEYModel builds the multiscale model for G³ cubes (G a power of two
// ≥ 8).
func NewMATEYModel(rng *rand.Rand, inVars, modelDim, heads, outVars, g int) *MATEYModel {
	coarse := nn.NewConv3D(rng, inVars, 4, 4) // G -> G/4
	fine := nn.NewConv3D(rng, inVars, 2, 2)   // G -> G/2
	cg, fg := g/4, g/2
	cDim := 4 * cg * cg * cg
	fDim := 2 * fg * fg * fg
	m := &MATEYModel{
		InVars: inVars, ModelDim: modelDim, OutVars: outVars, G: g,
		coarse: coarse, fine: fine,
		actC: nn.NewActivation("relu"), actF: nn.NewActivation("relu"),
		fuse:  nn.NewLinear(rng, cDim+fDim, modelDim),
		block: nn.NewTransformerBlock(rng, modelDim, heads, 2*modelDim),
		dec:   newCubeDecoder(rng, modelDim, outVars, g),
		cg:    cg, fg: fg, cDim: cDim, fDim: fDim,
	}
	m.params = paramsOf(m.coarse, m.fine, m.fuse, m.block, m.dec)
	return m
}

// Name implements Model.
func (m *MATEYModel) Name() string { return "MATEY" }

// Forward maps x [B, T, C, G, G, G] to [B, T, C', G, G, G].
func (m *MATEYModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	ws := &m.ws
	ws.Reset()
	b, t := x.Dim(0), x.Dim(1)
	m.b, m.t = b, t
	g := m.G
	flat := ws.View(x, b*t, m.InVars, g, g, g)
	hc := m.actC.Forward(ws, m.coarse.Forward(ws, flat)) // read below as [B*T, cDim]
	hf := m.actF.Forward(ws, m.fine.Forward(ws, flat))   // read below as [B*T, fDim]
	// Concatenate branch latents.
	cat := ws.New(b*t, m.cDim+m.fDim)
	for r := 0; r < b*t; r++ {
		copy(cat.Data[r*(m.cDim+m.fDim):], hc.Data[r*m.cDim:(r+1)*m.cDim])
		copy(cat.Data[r*(m.cDim+m.fDim)+m.cDim:], hf.Data[r*m.fDim:(r+1)*m.fDim])
	}
	z := m.fuse.Forward(ws, cat)
	z = ws.View(m.block.Forward(ws, ws.View(z, b, t, m.ModelDim)), b*t, m.ModelDim)
	return ws.View(m.dec.forward(ws, z), b, t, m.OutVars, g, g, g)
}

// Backward implements Model.
func (m *MATEYModel) Backward(dy *tensor.Tensor) {
	ws := &m.ws
	b, t, g := m.b, m.t, m.G
	dz := m.dec.backward(ws, ws.View(dy, b*t, m.OutVars, g, g, g))
	dz = ws.View(m.block.Backward(ws, ws.View(dz, b, t, m.ModelDim)), b*t, m.ModelDim)
	dcat := m.fuse.Backward(ws, dz)
	dhc := ws.New(b*t, 4, m.cg, m.cg, m.cg)
	dhf := ws.New(b*t, 2, m.fg, m.fg, m.fg)
	for r := 0; r < b*t; r++ {
		copy(dhc.Data[r*m.cDim:(r+1)*m.cDim], dcat.Data[r*(m.cDim+m.fDim):])
		copy(dhf.Data[r*m.fDim:(r+1)*m.fDim], dcat.Data[r*(m.cDim+m.fDim)+m.cDim:])
	}
	dxc := m.coarse.Backward(ws, m.actC.Backward(ws, dhc))
	dxf := m.fine.Backward(ws, m.actF.Backward(ws, dhf))
	// Input gradient is the sum of both branches (unused upstream, but the
	// addition keeps the pass complete for composition).
	dxc.AddScaled(1, dxf)
}
