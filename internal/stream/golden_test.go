package stream

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfd3d"
	"repro/internal/sampling"
)

// TestGoldenReservoirShards pins reservoir mode end to end: the FNV-64a of
// the two shard files a fixed (seed, ranks, merge cadence) run writes must
// equal what the implementation with per-offer row copies and the
// binary.Write codec produced. It covers the key rng stream, the sketch
// state each weight reads, the reservoir's evictions, the cross-rank
// reduction, the flush order and the .skl bytes in one number.
func TestGoldenReservoirShards(t *testing.T) {
	const want = uint64(0xa240560ff3e1fe08)
	d := cfd3d.EvolveDataset("golden", 6, 2, cfd3d.Config{N: 16, Seed: 3, BruntN: 2})
	prefix := filepath.Join(t.TempDir(), "golden")
	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: sampling.PipelineConfig{
			Hypercubes: "maxent", Method: "uips",
			NumHypercubes: 3, NumSamples: 48,
			CubeSx: 8, CubeSy: 8, CubeSz: 8,
			NumClusters: 4, Seed: 11,
		},
		Ranks: 2, Window: 2, MergeEvery: 2, ReservoirBudget: 64,
		ShardPrefix: prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 3*64 {
		t.Fatalf("reservoirs kept %d points, want %d", res.Points, 3*64)
	}
	h := fnv.New64a()
	for _, p := range res.ShardPaths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("shard bytes hash %#x, want %#x", got, want)
	}
}
