package serve

import (
	"context"
	"slices"
	"testing"

	"repro/internal/sampling"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/pkg/api"
)

// TestSameRequestSameCubesOnEveryPath: one cube-geometry rule
// (PipelineConfig.FitTo) sits under the offline pipeline, the streaming
// pipeline and the API's request translation, so the same request keeps the
// same cubes on all three — including the corner where the paths used to
// disagree, an edge larger than a grid axis that is itself larger than 32.
// The served leg reads phase 1 through the server's memo, cold then warm.
func TestSameRequestSameCubesOnEveryPath(t *testing.T) {
	d := synth.SSTDataset("SST-geometry", 2, synth.StratifiedConfig{Nx: 64, Ny: 16, Nz: 32, Seed: 5})
	ctx := context.Background()
	s, _ := newTestServer(t, Config{})
	s.cache.GetOrLoad(ctx, datasetKey(d.Label, "small"), func() (any, error) {
		return cachedDataset{d, sampling.NewMemo(d)}, nil
	})
	served, memo, _, err := s.resolveDataset(ctx, d.Label, "small")
	if err != nil || served != d || memo == nil {
		t.Fatalf("resolveDataset = memo %p, %v; want the cached dataset and its memo", memo, err)
	}
	for _, edge := range []int{8, 16, 48, 100} {
		req := &api.SubsampleRequest{Hypercubes: "maxent", Method: "random",
			Cube: edge, NumHypercubes: 3, NumSamples: 16, NumClusters: 3, Seed: 7}
		pcfg := sampling.PipelineConfig{Hypercubes: req.Hypercubes, Method: req.Method,
			CubeSx: edge, NumHypercubes: req.NumHypercubes, NumSamples: req.NumSamples,
			NumClusters: req.NumClusters, Seed: req.Seed}

		offline := pcfg
		offline.FitTo(d.Snapshots[0])
		want, err := sampling.SelectCubesForDataset(ctx, d, 0, offline)
		if err != nil {
			t.Fatal(err)
		}
		if c := want[0]; c.Sx != min(edge, 64) || c.Sy != min(edge, 16) || c.Sz != min(edge, 32) {
			t.Fatalf("edge %d fitted to %d×%d×%d cubes on a 64×16×32 grid", edge, c.Sx, c.Sy, c.Sz)
		}

		streamed, err := stream.Run(ctx, stream.NewReplaySource(d), stream.Config{Pipeline: pcfg, Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(streamed.Kept, want) {
			t.Fatalf("edge %d: streamed kept %+v, offline %+v", edge, streamed.Kept, want)
		}

		// The served leg goes through the memo cached beside the dataset,
		// cold and then warm.
		viaMemo := pipelineConfig(req, served.Snapshots[0])
		viaMemo.Memo = memo
		for _, state := range []string{"cold", "warm"} {
			got, err := sampling.SelectCubesForDataset(ctx, served, 0, viaMemo)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("edge %d: serve (%s memo) kept %+v, offline %+v", edge, state, got, want)
			}
		}
	}
}
