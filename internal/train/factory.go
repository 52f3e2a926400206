package train

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/grid"
	"repro/internal/sampling"
)

// ArchSpec names one of the Table 2 architectures together with the
// dimensions needed to rebuild an identical replica — the contract a
// checkpoint written by nn.SaveCheckpoint imposes on its reader. It is the
// shared currency between cmd/sickle-train (which writes checkpoints) and
// internal/serve's model registry (which loads them into worker replicas).
type ArchSpec struct {
	Arch   string `json:"arch"`             // lstm | mlp_transformer | cnn_transformer | matey
	InDim  int    `json:"inDim"`            // lstm: input width; others: input variables
	Hidden int    `json:"hidden,omitempty"` // lstm hidden size / transformer model dim (default 16)
	Heads  int    `json:"heads,omitempty"`  // attention heads (default 2)
	OutDim int    `json:"outDim"`           // lstm: output width; others: output variables
	Edge   int    `json:"edge,omitempty"`   // decoder cube edge (transformer/MATEY only)
}

func (s ArchSpec) withDefaults() ArchSpec {
	if s.Hidden <= 0 {
		s.Hidden = 16
	}
	if s.Heads <= 0 {
		s.Heads = 2
	}
	return s
}

// Validate reports whether the spec can build a model.
func (s ArchSpec) Validate() error {
	switch strings.ToLower(s.Arch) {
	case "lstm":
		if s.InDim <= 0 || s.OutDim <= 0 {
			return fmt.Errorf("train: lstm spec needs inDim and outDim, got %+v", s)
		}
	case "mlp_transformer", "cnn_transformer", "matey":
		if s.InDim <= 0 || s.OutDim <= 0 || s.Edge <= 0 {
			return fmt.Errorf("train: %s spec needs inDim, outDim and edge, got %+v", s.Arch, s)
		}
	default:
		return fmt.Errorf("train: unknown arch %q (want lstm|mlp_transformer|cnn_transformer|matey)", s.Arch)
	}
	return nil
}

// SizedFor fills the dimensions the spec leaves zero from the data it will
// train on: the LSTM reads BuildSampleSingle's per-variable mean and std
// (InDim = 2·inputs) and predicts the one global target; the cube
// architectures take the dataset's variable counts and the cube edge.
func (s ArchSpec) SizedFor(d *grid.Dataset, edge int) ArchSpec {
	in, out := len(d.InputVars), len(d.OutputVars)
	if strings.EqualFold(s.Arch, "lstm") {
		in, out, edge = 2*in, 1, 0
	}
	if s.InDim <= 0 {
		s.InDim = in
	}
	if s.OutDim <= 0 {
		s.OutDim = out
	}
	if s.Edge <= 0 {
		s.Edge = edge
	}
	return s
}

// Layout names the example layout the architecture consumes (Table 2):
// lstm → sample-single, mlp_transformer → sample-full, cnn_transformer and
// matey → full-full; "" for an unknown arch.
func (s ArchSpec) Layout() string {
	switch strings.ToLower(s.Arch) {
	case "lstm":
		return "sample-single"
	case "mlp_transformer":
		return "sample-full"
	case "cnn_transformer", "matey":
		return "full-full"
	}
	return ""
}

// Examples lays cube samples out in the architecture's Layout.
func (s ArchSpec) Examples(d *grid.Dataset, cubes []sampling.CubeSample, window int) ([]Example, error) {
	switch s.Layout() {
	case "sample-single":
		return BuildSampleSingle(d, cubes, window)
	case "sample-full":
		return BuildSampleFull(d, cubes, window)
	case "full-full":
		return BuildFullFull(d, cubes, window)
	}
	return nil, fmt.Errorf("train: unknown arch %q", s.Arch)
}

// Build constructs a freshly initialized model from the spec.
func (s ArchSpec) Build(rng *rand.Rand) (Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	switch strings.ToLower(s.Arch) {
	case "lstm":
		return NewLSTMModel(rng, s.InDim, s.Hidden, s.OutDim), nil
	case "mlp_transformer":
		return NewMLPTransformer(rng, s.InDim, s.Hidden, s.Heads, s.OutDim, s.Edge), nil
	case "cnn_transformer":
		return NewCNNTransformer(rng, s.InDim, s.Hidden, s.Heads, s.OutDim, s.Edge), nil
	case "matey":
		return NewMATEYModel(rng, s.InDim, s.Hidden, s.Heads, s.OutDim, s.Edge), nil
	}
	return nil, fmt.Errorf("train: unknown arch %q", s.Arch)
}

// Factory adapts the spec to the ModelFactory signature Train expects.
// Validate first; Build errors surface as a panic here because the training
// loop has no error channel for replica construction.
func (s ArchSpec) Factory() ModelFactory {
	return func(rng *rand.Rand) Model {
		m, err := s.Build(rng)
		if err != nil {
			panic(err)
		}
		return m
	}
}
