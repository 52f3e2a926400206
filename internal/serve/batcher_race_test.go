package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/pkg/api"
)

// TestRowsCopiedBeforeReplicaRelease: a replica's prediction lives on the
// replica's own workspace, so runBatch must copy the response rows out
// before it releases the replica. Two goroutines push batches of their own
// inputs through a model with a single replica, back to back; released too
// early, the second batch's forward pass overwrites the first one's
// prediction while it is still being copied — the race detector sees the
// write, and the rows stop matching what an unbatched forward gives.
func TestRowsCopiedBeforeReplicaRelease(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	if _, err := s.Registry().Register("m", testSpec, "", testShape, 1); err != nil { // one replica, fresh weights
		t.Fatal(err)
	}
	ref, err := testSpec.Build(rand.New(rand.NewSource(1))) // what Register seeds a replica with
	if err != nil {
		t.Fatal(err)
	}

	const callers, rounds, batchSize = 2, 50, 4
	type call struct {
		reqs []*inferRequest
		want [][]float64
	}
	calls := make([][]call, callers)
	rng := rand.New(rand.NewSource(5))
	for g := range calls {
		calls[g] = make([]call, rounds)
		for r := range calls[g] {
			c := &calls[g][r]
			for i := 0; i < batchSize; i++ {
				item := randomItem(rng)
				c.want = append(c.want, expect(ref, item))
				c.reqs = append(c.reqs, &inferRequest{
					ctx:   context.Background(),
					input: tensor.FromSlice(item.Data, item.Shape...),
					resp:  make(chan inferResult, 1),
				})
			}
		}
	}

	var wg sync.WaitGroup
	for g := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, c := range calls[g] {
				s.batcher.runBatch("m", c.reqs)
				for i, req := range c.reqs {
					res := <-req.resp
					if res.err != nil {
						t.Errorf("caller %d round %d: %v", g, r, res.err)
						return
					}
					if err := checkOutput(api.InferItem{Data: res.output.Data}, c.want[i]); err != nil {
						t.Errorf("caller %d round %d row %d is not the row of its own input: %v", g, r, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
