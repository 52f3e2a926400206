package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/grid"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// A probe is a direct call into a lower layer's public function with
// workload-shaped inputs, made only in the traced run, after the traced
// window. Each is repeated and the per-layer table reports the median.
const (
	probeReps     = 15
	probeCubeEdge = 16
	probePoints   = 410 // a tenth of 16³, the paper's default rate
)

// probeSamplers times every point sampler's SelectPoints, and the k-means
// under MaxEnt, on the features of one 16³ cube of the workload's own
// dataset: a win for one method shows next to the other four.
func probeSamplers(ctx context.Context, rec *recorder, d *grid.Dataset, seed int64) error {
	f := d.Snapshots[0]
	cubes := grid.Tile(f, probeCubeEdge, probeCubeEdge, probeCubeEdge)
	if len(cubes) == 0 {
		return fmt.Errorf("probe: %dx%dx%d grid holds no %d-cube", f.Nx, f.Ny, f.Nz, probeCubeEdge)
	}
	cube := cubes[0]
	data := &sampling.Data{Features: f.Points(d.InputVars, cube.Indices(f))}
	if d.ClusterVar != "" {
		data.ClusterVar = cube.VarValues(f, d.ClusterVar)
	}
	for _, method := range []string{"maxent", "uips", "lhs", "stratified", "random"} {
		ps, err := sampling.NewPointSampler(method, 0, nil)
		if err != nil {
			return err
		}
		for r := 0; r < probeReps; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(seed + int64(r)))
			_, end := rec.begin(-1, -1, "probe.sampling."+method)
			idx := ps.SelectPoints(data, probePoints, rng)
			end()
			if len(idx) != probePoints {
				return fmt.Errorf("probe: %s selected %d of %d points", method, len(idx), probePoints)
			}
		}
	}
	for r := 0; r < probeReps; r++ {
		_, end := rec.begin(-1, -1, "probe.cluster.kmeans")
		_, err := cluster.KMeans(data.Features, cluster.Config{K: 5, Seed: seed + int64(r)})
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeModel times one forward and one backward pass of the workload's
// model on one stacked batch, and tensor.MatMul at the model's largest
// shape (the point encoder's batch·points × hidden by hidden × hidden).
func probeModel(rec *recorder, d *grid.Dataset, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	model, err := paperSpec(d).Build(rng)
	if err != nil {
		return err
	}
	x := tensor.Randn(rng, 1, paperBatch, 1, paperPoints, len(d.InputVars))
	var dy *tensor.Tensor
	for r := 0; r < 2*probeReps; r++ {
		_, end := rec.begin(-1, -1, "probe.nn.forward")
		y := model.Forward(x)
		end()
		if dy == nil {
			dy = tensor.New(y.Shape...)
			for i := range dy.Data {
				dy.Data[i] = 1
			}
		}
		_, end = rec.begin(-1, -1, "probe.nn.backward")
		model.Backward(dy)
		end()
	}

	m, k, n := paperBatch*paperPoints, paperHidden, paperHidden
	a, b := tensor.Randn(rng, 1, m, k), tensor.Randn(rng, 1, k, n)
	rec.count("probe.matmul_flops", float64(2*m*k*n)) // computed from sizes, not measured
	for r := 0; r < 10*probeReps; r++ {
		_, end := rec.begin(-1, -1, "probe.tensor.matmul")
		c := tensor.MatMul(a, b)
		end()
		if c.Dim(0) != m || c.Dim(1) != n {
			return fmt.Errorf("probe: matmul gave %v", c.Shape)
		}
	}
	return nil
}

// probeWAL times durable.Log.Append (fsync included) on a fresh store in
// the run's scratch directory — the same file system the replicas' WALs
// sit on.
func probeWAL(rec *recorder, dir string) error {
	st, _, err := durable.Open(filepath.Join(dir, "probe-wal"))
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Seal(); err != nil {
		return err
	}
	for r := 0; r < 10*probeReps; r++ {
		record := durable.Record{Kind: durable.KindStart, ID: fmt.Sprintf("job-%d", r), Time: time.Now()}
		_, end := rec.begin(-1, -1, "probe.durable.log_append")
		err := st.WAL.Append(record)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}
