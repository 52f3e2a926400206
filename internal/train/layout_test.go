package train

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// refDenseFullFull is BuildFullFull as it was before it learned to scatter:
// it reads the dense input cubes straight from the dataset and never looks
// at the samples. Kept as the reference for the method-"full" case.
func refDenseFullFull(d *grid.Dataset, cubes []sampling.CubeSample, window int) []Example {
	var out []Example
	for _, series := range seriesByCube(cubes) {
		for start := 0; start+window <= len(series); start++ {
			win := series[start : start+window]
			g := win[0].Cube.Sx
			cIn := len(d.InputVars)
			in := tensor.New(window, cIn, g, g, g)
			for t, w := range win {
				f := d.Snapshots[w.Snapshot]
				flat := w.Cube.Indices(f)
				for v, name := range d.InputVars {
					src := f.Var(name)
					for p, fi := range flat {
						in.Data[(t*cIn+v)*g*g*g+p] = src[fi]
					}
				}
			}
			out = append(out, Example{Input: in, Target: denseTarget(d, win)})
		}
	}
	return out
}

// refMaskedFullFull is Fig. 9's former private builder
// (sickle.buildMaskedFullFull): one example per cube sample, in input
// (snapshot-major) order, sampled points scattered into a zero cube.
func refMaskedFullFull(d *grid.Dataset, cubes []sampling.CubeSample, edge int) []Example {
	cIn := len(d.InputVars)
	var out []Example
	for _, cs := range cubes {
		f := d.Snapshots[cs.Snapshot]
		flat := cs.Cube.Indices(f)
		in := tensor.New(1, cIn, edge, edge, edge)
		for r, li := range cs.LocalIdx {
			for v := 0; v < cIn; v++ {
				in.Data[v*edge*edge*edge+li] = cs.Features[r][v]
			}
		}
		tgt := tensor.New(1, len(d.OutputVars), edge, edge, edge)
		for v, name := range d.OutputVars {
			src := f.Var(name)
			for p, fi := range flat {
				tgt.Data[v*edge*edge*edge+p] = src[fi]
			}
		}
		out = append(out, Example{Input: in, Target: tgt})
	}
	return out
}

func sameExample(a, b Example) bool {
	return slices.Equal(a.Input.Shape, b.Input.Shape) && slices.Equal(a.Input.Data, b.Input.Data) &&
		slices.Equal(a.Target.Shape, b.Target.Shape) && slices.Equal(a.Target.Data, b.Target.Data)
}

// TestBuildFullFullDenseUnderFull: with method "full" every point is
// sampled, so scattering the samples rebuilds the dense cube the builder
// used to read from the dataset, bit for bit, in the same order.
func TestBuildFullFullDenseUnderFull(t *testing.T) {
	d, cubes := pipelineDataset(t, "full")
	for _, window := range []int{1, 2} {
		got, err := BuildFullFull(d, cubes, window)
		if err != nil {
			t.Fatal(err)
		}
		want := refDenseFullFull(d, cubes, window)
		if len(got) != len(want) {
			t.Fatalf("window %d: %d examples, the dense reference has %d", window, len(got), len(want))
		}
		for i := range want {
			if !sameExample(got[i], want[i]) {
				t.Fatalf("window %d: example %d differs from the dense reference", window, i)
			}
		}
	}
}

// TestBuildFullFullMasksSparseSamples: under a sparse sampler the inputs are
// Fig. 9's zero-masked cubes — the same examples the figure's private
// builder made, in cube-major rather than snapshot-major order — so the
// model sees the sampler: two samplers give different inputs.
func TestBuildFullFullMasksSparseSamples(t *testing.T) {
	d, cubes := pipelineDataset(t, "maxent")
	got, err := BuildFullFull(d, cubes, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := refMaskedFullFull(d, cubes, 8)
	if len(got) != len(want) || len(got) != len(cubes) {
		t.Fatalf("%d examples, the masked reference has %d from %d cube samples", len(got), len(want), len(cubes))
	}
	key := func(e Example) string { return fmt.Sprint(e.Input.Data, e.Target.Data) }
	gk, wk := make([]string, len(got)), make([]string, len(want))
	for i := range got {
		gk[i], wk[i] = key(got[i]), key(want[i])
		nonzero := 0
		for _, x := range got[i].Input.Data {
			if x != 0 {
				nonzero++
			}
		}
		if limit := len(cubes[0].LocalIdx) * len(d.InputVars); nonzero == 0 || nonzero > limit {
			t.Fatalf("example %d has %d non-zero inputs, want 1..%d (the sampled points only)", i, nonzero, limit)
		}
	}
	sort.Strings(gk)
	sort.Strings(wk)
	if !slices.Equal(gk, wk) {
		t.Fatal("the examples are not the masked reference's as a multiset")
	}

	_, other := pipelineDataset(t, "random")
	ex2, err := BuildFullFull(d, other, 1)
	if err != nil {
		t.Fatal(err)
	}
	// (Snapshot 0's cluster variable is flat, where maxent degrades to the
	// random draw, so compare the whole trajectory.)
	if slices.EqualFunc(got, ex2, func(a, b Example) bool { return slices.Equal(a.Input.Data, b.Input.Data) }) {
		t.Fatal("maxent and random samples built the same input cubes: the layout ignores the sampler")
	}
}

// TestArchSpecOwnsLayoutAndSizing: the architecture, not its caller, decides
// which example layout it consumes and how the data sizes it.
func TestArchSpecOwnsLayoutAndSizing(t *testing.T) {
	d, cubes := pipelineDataset(t, "random")
	d.GlobalTargets = []float64{1, 2, 3, 4}
	nIn, nOut := len(d.InputVars), len(d.OutputVars)
	for _, tc := range []struct {
		arch, layout string
		want         ArchSpec
		inputDims    []int
	}{
		{"lstm", "sample-single", ArchSpec{InDim: 2 * nIn, OutDim: 1}, []int{1, 2 * nIn}},
		{"mlp_transformer", "sample-full", ArchSpec{InDim: nIn, OutDim: nOut, Edge: 8}, []int{1, 40, nIn}},
		{"CNN_Transformer", "full-full", ArchSpec{InDim: nIn, OutDim: nOut, Edge: 8}, []int{1, nIn, 8, 8, 8}},
		{"matey", "full-full", ArchSpec{InDim: nIn, OutDim: nOut, Edge: 8}, []int{1, nIn, 8, 8, 8}},
	} {
		spec := ArchSpec{Arch: tc.arch}.SizedFor(d, 8)
		tc.want.Arch = tc.arch
		if spec != tc.want {
			t.Fatalf("%s sized to %+v, want %+v", tc.arch, spec, tc.want)
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := spec.Layout(); got != tc.layout {
			t.Fatalf("%s consumes layout %q, want %q", tc.arch, got, tc.layout)
		}
		ex, err := spec.Examples(d, cubes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ex[0].Input.Shape, tc.inputDims) {
			t.Fatalf("%s examples have input shape %v, want %v", tc.arch, ex[0].Input.Shape, tc.inputDims)
		}
	}
	// Dimensions the caller names are kept.
	if s := (ArchSpec{Arch: "matey", InDim: 7, Edge: 4}).SizedFor(d, 8); s.InDim != 7 || s.Edge != 4 || s.OutDim != nOut {
		t.Fatalf("explicit dimensions overwritten: %+v", s)
	}
	if _, err := (ArchSpec{Arch: "resnet"}).Examples(d, cubes, 1); err == nil {
		t.Fatal("an unknown architecture has no layout")
	}
}
