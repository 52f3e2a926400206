package train

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Example is one training pair; Input and Target carry no batch dimension.
type Example struct {
	Input  *tensor.Tensor
	Target *tensor.Tensor
}

// stackBatch assembles the batch's input and target tensors [B, ...] on
// m's batch tape, which it resets: the pair stays valid through the
// Forward and Backward that follow, until the next stackBatch on m.
func stackBatch(m Model, batch []Example) (in, tgt *tensor.Tensor) {
	ws := BatchTape(m)
	ws.Reset()
	in = ws.NewBatch(len(batch), batch[0].Input)
	tgt = ws.NewBatch(len(batch), batch[0].Target)
	for i, ex := range batch {
		copyRow(in, i, ex.Input)
		copyRow(tgt, i, ex.Target)
	}
	return in, tgt
}

func copyRow(dst *tensor.Tensor, i int, x *tensor.Tensor) {
	stride := dst.Len() / dst.Dim(0)
	if x.Len() != stride {
		panic("train: ragged examples in batch")
	}
	copy(dst.Data[i*stride:(i+1)*stride], x.Data)
}

// SplitTrainTest shuffles and splits examples (paper: 90:10).
func SplitTrainTest(ex []Example, testFrac float64, seed int64) (trainSet, testSet []Example) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ex))
	nTest := int(float64(len(ex)) * testFrac)
	if nTest < 1 && len(ex) > 1 {
		nTest = 1
	}
	for i, p := range perm {
		if i < nTest {
			testSet = append(testSet, ex[p])
		} else {
			trainSet = append(trainSet, ex[p])
		}
	}
	return
}

// seriesByCube groups samples into one time series per cube, in ascending
// cube-ID order (and input order within a cube). The order is part of the
// result: it fixes the example order, hence the train/test split and every
// loss downstream, so it must not be a map's.
func seriesByCube(cubes []sampling.CubeSample) [][]sampling.CubeSample {
	byCube := map[int][]sampling.CubeSample{}
	for _, cs := range cubes {
		byCube[cs.Cube.ID] = append(byCube[cs.Cube.ID], cs)
	}
	ids := make([]int, 0, len(byCube))
	for id := range byCube {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([][]sampling.CubeSample, len(ids))
	for i, id := range ids {
		out[i] = byCube[id]
	}
	return out
}

// BuildSampleFull converts subsampled cubes into sample-full examples for
// the MLP-Transformer: input = the cube's sampled points over a window of
// snapshots [T, N, C]; target = the dense cube of output variables at
// every window snapshot [T, C', G, G, G]. Cubes are matched across
// snapshots by cube ID, so a window slides along time for each cube.
func BuildSampleFull(d *grid.Dataset, cubes []sampling.CubeSample, window int) ([]Example, error) {
	if window <= 0 {
		window = 1
	}
	var out []Example
	for _, series := range seriesByCube(cubes) {
		for start := 0; start+window <= len(series); start++ {
			win := series[start : start+window]
			n := len(win[0].Features)
			c := len(d.InputVars)
			ok := true
			for _, w := range win {
				if len(w.Features) != n {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			in := tensor.New(window, n, c)
			for t, w := range win {
				for p, feat := range w.Features {
					copy(in.Data[(t*n+p)*c:(t*n+p)*c+c], feat)
				}
			}
			out = append(out, Example{Input: in, Target: denseTarget(d, win)})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("train: no sample-full examples could be built")
	}
	return out, nil
}

// denseTarget is the dense cube of output variables at each of win's
// snapshots [T, C', G, G, G], the target of both cube layouts: the cube
// models predict one cube per window step.
func denseTarget(d *grid.Dataset, win []sampling.CubeSample) *tensor.Tensor {
	g := win[0].Cube.Sx
	cOut := len(d.OutputVars)
	tgt := tensor.New(len(win), cOut, g, g, g)
	for t, cs := range win {
		f := d.Snapshots[cs.Snapshot]
		flat := cs.Cube.Indices(f)
		for v, name := range d.OutputVars {
			src := f.Var(name)
			for p, fi := range flat {
				tgt.Data[(t*cOut+v)*g*g*g+p] = src[fi]
			}
		}
	}
	return tgt
}

// BuildFullFull converts cube samples into full-full examples for the
// CNN-Transformer and MATEY: input = the window's sampled points scattered
// into a zero cube per step [T, C, G, G, G]; target = dense output cube at
// every window snapshot [T, C', G, G, G]. Under method "full" every point is
// sampled, so the input is the dense input-variable cube; under a sparse
// sampler it is that cube with the unsampled points masked to zero, which is
// how a dense foundation model consumes a SICKLE selection (Fig. 9).
func BuildFullFull(d *grid.Dataset, cubes []sampling.CubeSample, window int) ([]Example, error) {
	if window <= 0 {
		window = 1
	}
	var out []Example
	for _, series := range seriesByCube(cubes) {
		for start := 0; start+window <= len(series); start++ {
			win := series[start : start+window]
			g := win[0].Cube.Sx
			cIn := len(d.InputVars)
			in := tensor.New(window, cIn, g, g, g)
			for t, w := range win {
				for r, li := range w.LocalIdx {
					for v, x := range w.Features[r] {
						in.Data[(t*cIn+v)*g*g*g+li] = x
					}
				}
			}
			out = append(out, Example{Input: in, Target: denseTarget(d, win)})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("train: no full-full examples could be built")
	}
	return out, nil
}

// BuildSampleSingle converts subsampled snapshots into sample-single
// examples for the LSTM drag surrogate: input = per-snapshot summary
// statistics (mean and std of every input variable over the sampled
// points) across a window [T, 2C]; target = the dataset's global target
// (drag) at the final window snapshot [1].
func BuildSampleSingle(d *grid.Dataset, cubes []sampling.CubeSample, window int) ([]Example, error) {
	if d.GlobalTargets == nil {
		return nil, fmt.Errorf("train: dataset %q has no global targets", d.Label)
	}
	if window <= 0 {
		window = 1
	}
	c := len(d.InputVars)
	// Aggregate all sampled points of each snapshot.
	bySnap := map[int][][]float64{}
	for _, cs := range cubes {
		bySnap[cs.Snapshot] = append(bySnap[cs.Snapshot], cs.Features...)
	}
	nSnap := len(d.Snapshots)
	feats := make([][]float64, nSnap)
	for t := 0; t < nSnap; t++ {
		pts := bySnap[t]
		if len(pts) == 0 {
			return nil, fmt.Errorf("train: snapshot %d has no sampled points", t)
		}
		row := make([]float64, 2*c)
		for v := 0; v < c; v++ {
			col := make([]float64, len(pts))
			for p := range pts {
				col[p] = pts[p][v]
			}
			m := stats.ComputeMoments(col)
			row[2*v] = m.Mean
			row[2*v+1] = mSqrt(m.Variance)
		}
		feats[t] = row
	}
	var out []Example
	for start := 0; start+window <= nSnap; start++ {
		in := tensor.New(window, 2*c)
		for t := 0; t < window; t++ {
			copy(in.Data[t*2*c:(t+1)*2*c], feats[start+t])
		}
		tgt := tensor.FromSlice([]float64{d.GlobalTargets[start+window-1]}, 1)
		out = append(out, Example{Input: in, Target: tgt})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("train: window %d longer than trajectory %d", window, nSnap)
	}
	return out, nil
}

// mSqrt is a non-negative square root (stddev from a variance that may be
// -0 due to rounding).
func mSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
