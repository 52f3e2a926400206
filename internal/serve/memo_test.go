package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/sampling"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestDatasetMemoSharedAndEvicted: concurrent MaxEnt requests over one
// cached dataset share the memo beside it, and a selection through that
// memo, once warm, is still the fresh one; the memo leaves the cache with
// its dataset.
func TestDatasetMemoSharedAndEvicted(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	req := func(seed int64) *api.SubsampleRequest {
		return &api.SubsampleRequest{Dataset: "GESTS-2048", Hypercubes: "maxent", Method: "maxent",
			Cube: 16, NumHypercubes: 4, NumSamples: 40, NumClusters: int(seed % 3), Seed: seed}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 {
				resp, err := c.Subsample(ctx, req(int64(w*3+r)))
				if err == nil && (resp.Cubes != 4 || resp.Points != 4*40) {
					err = fmt.Errorf("seed %d: %d cubes, %d points; want 4 of 40", w*3+r, resp.Cubes, resp.Points)
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	d, memo, hit, err := s.resolveDataset(ctx, "GESTS-2048", "")
	if err != nil || !hit || memo == nil {
		t.Fatalf("resolveDataset = memo %p, hit %v, %v; want the cached dataset and its memo", memo, hit, err)
	}
	for seed := range int64(6) {
		pcfg := pipelineConfig(req(seed), d.Snapshots[0])
		want, err := sampling.SubsampleSnapshot(ctx, d, 0, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		pcfg.Memo = memo
		got, err := sampling.SubsampleSnapshot(ctx, d, 0, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Cube != want[i].Cube || fmt.Sprint(got[i].LocalIdx) != fmt.Sprint(want[i].LocalIdx) {
				t.Fatalf("seed %d cube %d: the warm memo selected %v in %+v, a fresh run %v in %+v",
					seed, i, got[i].LocalIdx, got[i].Cube, want[i].LocalIdx, want[i].Cube)
			}
		}
	}

	// Another entry evicts the dataset from the one-entry cache; it comes
	// back with a memo of its own.
	s.cache.GetOrLoad(ctx, shardKey("other"), func() (any, error) { return nil, nil })
	_, again, hit, err := s.resolveDataset(ctx, "GESTS-2048", "")
	if err != nil || hit || again == memo {
		t.Fatalf("after eviction: hit %v, same memo %v, %v; want a fresh dataset and memo", hit, again == memo, err)
	}
}

// BenchmarkSubsampleMemoMiss prices a served MaxEnt request that misses the
// memo: the dataset is cached, but every request names a k (2..100) that no
// earlier request on its server did, so each clusters afresh and stores its
// answer. A fresh server takes over every 99 requests, outside the timer.
// Its request is the ledger's online-jobs subsample but for k.
func BenchmarkSubsampleMemoMiss(b *testing.B) {
	ctx := context.Background()
	req := &api.SubsampleRequest{Dataset: "GESTS-8192", Scale: "small", Hypercubes: "maxent",
		Method: "maxent", NumHypercubes: 8, NumSamples: 410, Cube: 16}
	var s *Server
	defer func() { s.batcher.Stop() }()
	b.ReportAllocs()
	for i := range b.N {
		if i%99 == 0 {
			b.StopTimer()
			if s != nil {
				s.batcher.Stop()
			}
			var err error
			if s, err = NewServer(Config{}); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := s.resolveDataset(ctx, req.Dataset, req.Scale); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		req.NumClusters, req.Seed = 2+i%99, int64(i)
		if _, err := s.doSubsample(ctx, req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
