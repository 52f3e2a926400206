package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
)

// testSpec is a tiny LSTM: input [T=3, C=4] → output [2].
var testSpec = train.ArchSpec{Arch: "lstm", InDim: 4, Hidden: 8, OutDim: 2}

var testShape = []int{3, 4}

// newTestServer registers one checkpointed model under "m" and returns the
// server plus a reference replica for computing expected outputs.
func newTestServer(t *testing.T, cfg Config) (*Server, train.Model) {
	t.Helper()
	ref, err := testSpec.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "m.sknn")
	if err := nn.SaveCheckpoint(ckpt, ref); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.batcher.Stop() })
	if _, err := s.Registry().Register("m", testSpec, ckpt, testShape, 2); err != nil {
		t.Fatal(err)
	}
	return s, ref
}

func randomItem(rng *rand.Rand) api.InferItem {
	data := make([]float64, 3*4)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return api.InferItem{Shape: testShape, Data: data}
}

// expect runs the reference model unbatched (batch dimension 1).
func expect(ref train.Model, item api.InferItem) []float64 {
	in := tensor.FromSlice(append([]float64(nil), item.Data...), append([]int{1}, item.Shape...)...)
	out := ref.Forward(in)
	return append([]float64(nil), out.Data...)
}

// doInfer posts one inference request; safe to call from any goroutine.
func doInfer(url string, req api.InferRequest) (*api.InferResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(url+"/v2/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var out api.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

// checkOutput compares a response item to the expected row bit for bit.
func checkOutput(got api.InferItem, want []float64) error {
	if len(got.Data) != len(want) {
		return fmt.Errorf("output len %d, want %d", len(got.Data), len(want))
	}
	for j := range want {
		if got.Data[j] != want[j] {
			return fmt.Errorf("output[%d] = %v, want %v", j, got.Data[j], want[j])
		}
	}
	return nil
}

// holdReplicas takes every replica of model "m" (the two newTestServer
// registers), so batches jam behind Acquire and later requests stay
// queued; the returned func gives them back.
func holdReplicas(t *testing.T, s *Server) (release func()) {
	t.Helper()
	entry, _ := s.reg.Lookup("m")
	var held [2]train.Model
	for i := range held {
		var err error
		if held[i], err = entry.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for _, m := range held {
			entry.Release(m)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedInferenceMatchesSingle is the core correctness property: many
// concurrent clients, whose requests coalesce into micro-batches, must each
// receive the output a lone unbatched request would have produced — bit for
// bit. The coalescing is made deterministic: with the replicas held, a
// lone call occupies the only worker, the next call's item waits in the
// dispatcher for a slot, and the other n-2 calls queue behind it; once the
// replicas come back the n-1 queued calls run in ⌈(n-1)/MaxBatch⌉ batches.
func TestBatchedInferenceMatchesSingle(t *testing.T) {
	const n, maxBatch = 24, 8
	s, ref := newTestServer(t, Config{MaxBatch: maxBatch, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(3))
	items := make([]api.InferItem, n)
	want := make([][]float64, n)
	for i := range items {
		items[i] = randomItem(rng)
		want[i] = expect(ref, items[i])
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	call := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: []api.InferItem{items[i]}})
			if err != nil || code != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d, err %v", code, err)
				return
			}
			if err := checkOutput(resp.Outputs[0], want[i]); err != nil {
				errs[i] = fmt.Errorf("%w (batch %d)", err, resp.BatchSizes[0])
			}
		}()
	}
	release := holdReplicas(t, s)
	call(0)
	waitFor(t, "the lone call's batch to start", func() bool { return s.met.batch.Count() == 1 })
	for i := 1; i < n; i++ {
		call(i)
	}
	waitFor(t, fmt.Sprintf("%d queued calls", n-2), func() bool { return s.batcher.QueueDepth() == n-2 })
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, most := s.met.batch.Count(), uint64((n-1+maxBatch-1)/maxBatch+1); got > most {
		t.Errorf("%d calls ran in %d batches, want at most %d", n, got, most)
	}
}

// yieldingCtx yields the processor on every Value lookup (admission reads
// the trace context through one), so an admission that let go of the
// batcher's lock between items would let the dispatcher in between them.
type yieldingCtx struct{ context.Context }

func (c yieldingCtx) Value(key any) any {
	runtime.Gosched()
	return c.Context.Value(key)
}

// TestInferCallIsOneBatch pins the admission barrier: a call's items are
// queued under one lock hold, and the dispatcher takes that lock before it
// collects, so a lone call of up to MaxBatch items is one batch every
// time, and a larger one runs in ⌈N/MaxBatch⌉ full batches, in order.
func TestInferCallIsOneBatch(t *testing.T) {
	const maxBatch = 16
	s, ref := newTestServer(t, Config{MaxBatch: maxBatch})
	rng := rand.New(rand.NewSource(13))
	infer := func(n int) (*api.InferResponse, []api.InferItem) {
		t.Helper()
		req := &api.InferRequest{Model: "m"}
		for i := 0; i < n; i++ {
			req.Items = append(req.Items, randomItem(rng))
		}
		resp, err := s.doInfer(yieldingCtx{context.Background()}, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, req.Items
	}

	for rep := 0; rep < 200; rep++ {
		resp, _ := infer(maxBatch)
		for i, size := range resp.BatchSizes {
			if size != maxBatch {
				t.Fatalf("rep %d: item %d rode in a batch of %d, want the whole call (%d)", rep, i, size, maxBatch)
			}
		}
	}

	const n = 2*maxBatch + 5
	before := s.met.batch.Count()
	resp, items := infer(n)
	if got, want := s.met.batch.Count()-before, uint64((n+maxBatch-1)/maxBatch); got != want {
		t.Errorf("a %d-item call ran in %d batches, want %d", n, got, want)
	}
	for i, item := range items {
		if want := min(maxBatch, n-i/maxBatch*maxBatch); resp.BatchSizes[i] != want {
			t.Errorf("item %d rode in a batch of %d, want %d", i, resp.BatchSizes[i], want)
		}
		if err := checkOutput(resp.Outputs[i], expect(ref, item)); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
}

// TestMixedShapeCallSplits: the LSTM takes any window length, so one call
// mixing T=3 and T=5 items reaches the batcher as one batch of two shapes.
// Each shape runs as exactly one forward pass, whichever shape comes
// first and however the two interleave, and every output is bit-equal to
// the item's unbatched run.
func TestMixedShapeCallSplits(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 8})
	rng := rand.New(rand.NewSource(17))
	long := func() api.InferItem {
		item := api.InferItem{Shape: []int{5, 4}, Data: make([]float64, 5*4)}
		for i := range item.Data {
			item.Data[i] = rng.NormFloat64()
		}
		return item
	}
	for _, tc := range []struct {
		windows []int // each item's T
		want    []int // the batch size each item rode in
	}{
		{[]int{3, 5, 3, 3}, []int{3, 1, 3, 3}},
		{[]int{3, 5, 3, 5, 5}, []int{2, 3, 2, 3, 3}},
	} {
		req := &api.InferRequest{Model: "m"}
		for _, w := range tc.windows {
			if w == 5 {
				req.Items = append(req.Items, long())
			} else {
				req.Items = append(req.Items, randomItem(rng))
			}
		}
		before := s.met.batch.Count()
		resp, err := s.doInfer(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.met.batch.Count() - before; got != 2 {
			t.Errorf("windows %v: %d forward passes observed, want 2 (one per shape)", tc.windows, got)
		}
		if !slices.Equal(resp.BatchSizes, tc.want) {
			t.Errorf("windows %v: BatchSizes %v, want %v", tc.windows, resp.BatchSizes, tc.want)
		}
		for i, item := range req.Items {
			if err := checkOutput(resp.Outputs[i], expect(ref, item)); err != nil {
				t.Errorf("windows %v, item %d (shape %v): %v", tc.windows, i, item.Shape, err)
			}
		}
	}
}

// TestMultiItemRequest checks that one request carrying several items gets
// per-item outputs in order.
func TestMultiItemRequest(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(5))
	items := []api.InferItem{randomItem(rng), randomItem(rng), randomItem(rng)}
	resp, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: items})
	if err != nil || code != http.StatusOK {
		t.Fatalf("HTTP %d, err %v", code, err)
	}
	if len(resp.Outputs) != len(items) {
		t.Fatalf("%d outputs for %d items", len(resp.Outputs), len(items))
	}
	for i, item := range items {
		if err := checkOutput(resp.Outputs[i], expect(ref, item)); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
}

// TestInferErrors exercises the failure paths: unknown model and malformed
// shapes must produce JSON errors, not hung requests or a crashed server.
func TestInferErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_ = s

	rng := rand.New(rand.NewSource(6))
	if _, code, err := doInfer(ts.URL, api.InferRequest{Model: "nope", Items: []api.InferItem{randomItem(rng)}}); err != nil || code == http.StatusOK {
		t.Fatalf("unknown model must fail (code %d, err %v)", code, err)
	}
	bad := api.InferItem{Shape: []int{2}, Data: []float64{1, 2, 3}}
	if _, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: []api.InferItem{bad}}); err != nil || code != http.StatusBadRequest {
		t.Fatalf("shape/data mismatch must be a 400 (code %d, err %v)", code, err)
	}
	// A well-formed item whose shape the model cannot consume: the forward
	// panic must come back as an error response.
	weird := api.InferItem{Shape: []int{7}, Data: make([]float64, 7)}
	if _, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: []api.InferItem{weird}}); err != nil || code == http.StatusOK {
		t.Fatalf("unconsumable shape must fail (code %d, err %v)", code, err)
	}
	// And the server must still answer afterwards.
	if _, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: []api.InferItem{randomItem(rng)}}); err != nil || code != http.StatusOK {
		t.Fatalf("server did not survive a failed forward pass (code %d, err %v)", code, err)
	}
}

// TestHotSwap registers a second version under the same name and checks new
// requests see it.
func TestHotSwap(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_ = s

	ref2, err := testSpec.Build(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	ckpt2 := filepath.Join(t.TempDir(), "m2.sknn")
	if err := nn.SaveCheckpoint(ckpt2, ref2); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(api.RegisterModelRequest{Name: "m", Spec: archToSpec(testSpec), Checkpoint: ckpt2, InputShape: testShape})
	resp, err := http.Post(ts.URL+"/v2/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot-swap HTTP %d", resp.StatusCode)
	}

	rng := rand.New(rand.NewSource(8))
	item := randomItem(rng)
	out, code, err := doInfer(ts.URL, api.InferRequest{Model: "m", Items: []api.InferItem{item}})
	if err != nil || code != http.StatusOK {
		t.Fatalf("HTTP %d, err %v", code, err)
	}
	if out.Version != 2 {
		t.Fatalf("served version %d after hot-swap, want 2", out.Version)
	}
	if err := checkOutput(out.Outputs[0], expect(ref2, item)); err != nil {
		t.Fatalf("output is not from the swapped weights: %v", err)
	}
}

// TestGracefulShutdownDrains starts a real listener, holds the replicas so
// a burst of requests is in flight, then shuts down under them and gives
// the replicas back once draining has begun: every request must still
// receive its real (bit-correct) response.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 4})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	rng := rand.New(rand.NewSource(11))
	const n = 16
	items := make([]api.InferItem, n)
	want := make([][]float64, n)
	for i := range items {
		items[i] = randomItem(rng)
		want[i] = expect(ref, items[i])
	}
	release := holdReplicas(t, s)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, code, err := doInfer(url, api.InferRequest{Model: "m", Items: []api.InferItem{items[i]}})
			if err != nil || code != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d, err %v", code, err)
				return
			}
			errs[i] = checkOutput(resp.Outputs[0], want[i])
		}(i)
	}

	// No request can finish while the replicas are held, so all n are in
	// flight when Shutdown begins; it must drain, not drop, them.
	waitFor(t, fmt.Sprintf("%d requests in flight", n), func() bool { return s.met.Inflight.Value() == n })
	go func() {
		for !s.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		release()
	}()
	// A connection dialed but never used would hold Shutdown for 5 s.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSubsampleCacheHit checks the LRU path end to end: the second
// identical /v2/subsample request must be served from cache.
func TestSubsampleCacheHit(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	var first, second api.SubsampleResponse
	for i, out := range []*api.SubsampleResponse{&first, &second} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v2/subsample", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: HTTP %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if first.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if !second.CacheHit {
		t.Fatal("second identical request must hit the dataset cache")
	}
	if first.Cubes != second.Cubes || first.Points != second.Points {
		t.Fatalf("cached run selected %d/%d, fresh run %d/%d",
			second.Cubes, second.Points, first.Cubes, first.Points)
	}
	hits, misses, _ := s.cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats %d hits / %d misses, want 1/1", hits, misses)
	}
	// /metrics must expose the hit.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sickle_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit counter:\n%s", buf.String())
	}
}

// TestHealthz sanity-checks the health endpoint shape.
func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_ = s
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Models) != 1 || h.Models[0] != "m@v1" {
		t.Fatalf("healthz = %+v", h)
	}
}
