package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/pkg/api"
	"repro/pkg/client"
)

// infer is admitAll followed by wait for one example.
func (b *Batcher) infer(ctx context.Context, model string, input *tensor.Tensor) (*tensor.Tensor, int, int, error) {
	reqs, err := b.admitAll(ctx, model, []*tensor.Tensor{input})
	if err != nil {
		return nil, 0, 0, err
	}
	res := reqs[0].wait()
	return res.output, res.version, res.batchSize, res.err
}

// rejectedTotal reads the cumulative backpressure rejections.
func (m *Metrics) rejectedTotal() int64 { return int64(m.rejected.Value()) }

// TestClientEndToEnd drives the full v2 surface through the pkg/client
// SDK: version negotiation, model listing, inference (bit-checked against
// the reference replica), synchronous subsample, and an async job
// submit → poll → result round trip.
func TestClientEndToEnd(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if v, err := c.Negotiate(ctx); err != nil || v != api.V2 {
		t.Fatalf("Negotiate = %q, %v; want v2", v, err)
	}
	models, err := c.Models(ctx)
	if err != nil || len(models) != 1 || models[0].Name != "m" {
		t.Fatalf("Models = %+v, %v", models, err)
	}
	if models[0].Spec.Arch != testSpec.Arch || models[0].Spec.InDim != testSpec.InDim {
		t.Fatalf("spec did not round-trip: %+v", models[0].Spec)
	}

	rng := rand.New(rand.NewSource(21))
	item := randomItem(rng)
	out, err := c.Infer(ctx, &api.InferRequest{Model: "m", Items: []api.InferItem{item}})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if err := checkOutput(out.Outputs[0], expect(ref, item)); err != nil {
		t.Fatalf("Infer output: %v", err)
	}

	// Typed error: unknown model surfaces as api.CodeModelNotFound.
	_, err = c.Infer(ctx, &api.InferRequest{Model: "nope", Items: []api.InferItem{item}})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeModelNotFound {
		t.Fatalf("unknown model error = %v, want code model_not_found", err)
	}

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	sr, err := c.Subsample(ctx, &sub)
	if err != nil || sr.Cubes != 2 {
		t.Fatalf("Subsample = %+v, %v", sr, err)
	}

	job, err := c.SubmitSubsampleJob(ctx, &sub)
	if err != nil {
		t.Fatalf("SubmitSubsampleJob: %v", err)
	}
	// Result before the job finishes may be job_not_ready; after WaitJob it
	// must be available.
	done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != api.JobSucceeded {
		t.Fatalf("job finished %s (%v)", done.State, done.Error)
	}
	if done.Progress.Done != done.Progress.Total || done.Progress.Total != 2 {
		t.Fatalf("job progress = %+v, want 2/2", done.Progress)
	}
	res, err := c.JobResult(ctx, job.ID)
	if err != nil || res.Subsample == nil {
		t.Fatalf("JobResult = %+v, %v", res, err)
	}
	if res.Subsample.Cubes != sr.Cubes || res.Subsample.Points != sr.Points {
		t.Fatalf("job result %+v disagrees with sync run %+v", res.Subsample, sr)
	}

	// The job shows up in metrics.
	raw, err := c.MetricsText(ctx)
	if err != nil || !strings.Contains(raw, `sickle_jobs{state="succeeded"}`) {
		t.Fatalf("metrics missing job gauge (err %v):\n%s", err, raw)
	}
}

// TestTrainJobEndToEnd submits async train jobs for every Table 2
// architecture: each gets the example layout it consumes, registers its
// trained surrogate and then serves inference from it. An LSTM over a
// dataset with no global target to regress, or a spec whose dimensions are
// not the data's, is the caller's mistake and fails typed, never as a runner
// panic.
func TestTrainJobEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	cube := api.ModelSpec{InDim: 4, Hidden: 8, Heads: 2, OutDim: 1, Edge: 8}
	withArch := func(spec api.ModelSpec, arch string) api.ModelSpec { spec.Arch = arch; return spec }
	for _, tc := range []struct {
		dataset string
		spec    api.ModelSpec
		wantErr string // substring of the invalid_argument message; "" = succeeds
		slow    bool
	}{
		{dataset: "GESTS-2048", spec: withArch(cube, "mlp_transformer")},
		{dataset: "GESTS-2048", spec: withArch(cube, "cnn_transformer")},
		{dataset: "GESTS-2048", spec: withArch(cube, "matey")},
		{dataset: "GESTS-2048", spec: api.ModelSpec{Arch: "lstm", InDim: 8, Hidden: 8, OutDim: 1}, wantErr: "has no global targets"},
		{dataset: "GESTS-2048", spec: api.ModelSpec{Arch: "matey", InDim: 3, Hidden: 8, Heads: 2, OutDim: 1, Edge: 8}, wantErr: "does not fit the data"},
		{dataset: "OF2D", spec: api.ModelSpec{Arch: "lstm", InDim: 4, Hidden: 8, OutDim: 1}, slow: true},
	} {
		name := tc.spec.Arch + "-" + tc.dataset
		if tc.slow && testing.Short() {
			continue // synthesizing the OF2D trajectory takes seconds
		}
		job, err := c.SubmitTrainJob(ctx, &api.TrainJobSpec{
			Dataset:   tc.dataset,
			Subsample: &api.SubsampleRequest{Cube: 8, NumHypercubes: 2, NumSamples: 32, Seed: 1},
			Spec:      tc.spec,
			Register:  name,
			Epochs:    2, Batch: 8, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: SubmitTrainJob: %v", name, err)
		}
		done, err := c.WaitJob(ctx, job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: WaitJob: %v", name, err)
		}
		if tc.wantErr != "" {
			if done.State != api.JobFailed || done.Error == nil || done.Error.Code != api.CodeInvalidArgument ||
				!strings.Contains(done.Error.Message, tc.wantErr) {
				t.Fatalf("%s: job finished %s (%v), want failed with invalid_argument %q", name, done.State, done.Error, tc.wantErr)
			}
			continue
		}
		if done.State != api.JobSucceeded {
			t.Fatalf("%s: train job finished %s (%v)", name, done.State, done.Error)
		}
		res, err := c.JobResult(ctx, job.ID)
		if err != nil || res.Train == nil {
			t.Fatalf("%s: JobResult = %+v, %v", name, res, err)
		}
		if res.Train.Registered != name || res.Train.Epochs != 2 || res.Train.Params <= 0 {
			t.Fatalf("%s: train result = %+v", name, res.Train)
		}

		models, err := c.Models(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var info *api.ModelInfo
		for i := range models {
			if models[i].Name == name {
				info = &models[i]
			}
		}
		if info == nil {
			t.Fatalf("%s: trained model not registered; have %+v", name, models)
		}
		n := 1
		for _, d := range info.InputShape {
			n *= d
		}
		out, err := c.Infer(ctx, &api.InferRequest{Model: name,
			Items: []api.InferItem{{Shape: info.InputShape, Data: make([]float64, n)}}})
		if err != nil || len(out.Outputs) != 1 {
			t.Fatalf("%s: infer on trained model: %+v, %v", name, out, err)
		}
	}
}

// TestUnknownScaleIsInvalidArgument: a scale that is neither small nor
// large is refused, not served as small.
func TestUnknownScaleIsInvalidArgument(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	_, err := c.Subsample(context.Background(), &api.SubsampleRequest{Dataset: "GESTS-2048", Scale: "Lrage", Cube: 8})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument || !strings.Contains(ae.Message, "unknown scale") {
		t.Fatalf("scale typo answered %v, want invalid_argument naming the scale", err)
	}
	for _, scale := range []string{"", "small", "SMALL"} {
		if _, err := c.Subsample(context.Background(), &api.SubsampleRequest{Dataset: "GESTS-2048", Scale: scale, Cube: 8, NumSamples: 8}); err != nil {
			t.Fatalf("scale %q: %v", scale, err)
		}
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("the three spellings of small cached %d datasets, want 1", n)
	}
}

// TestJobCancelMidSubsample is the acceptance check for cancellation:
// DELETE /v2/jobs/{id} during an in-flight subsample job must stop the
// sampling pipeline between cube batches, observable through the job's
// progress counters (done < total) and the terminal canceled state.
func TestJobCancelMidSubsample(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	// The hook parks the sampler after its first cube until the test has
	// issued the cancel, making the interleaving deterministic.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testProgressHook = func(done, total int) {
		if done == 1 {
			once.Do(func() { close(started) })
			<-release
		}
	}

	const totalCubes = 4
	job, err := c.SubmitSubsampleJob(ctx, &api.SubsampleRequest{
		Dataset: "GESTS-2048", Cube: 8, NumHypercubes: totalCubes, NumSamples: 16, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if _, err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	close(release)

	done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != api.JobCanceled {
		t.Fatalf("state = %s, want canceled", done.State)
	}
	if done.Error == nil || done.Error.Code != api.CodeJobCanceled {
		t.Fatalf("job error = %+v, want code job_canceled", done.Error)
	}
	// The sampler stopped between cubes: at least one done, but not all.
	if done.Progress.Done < 1 || done.Progress.Done >= totalCubes {
		t.Fatalf("progress = %+v; cancel did not land between cube batches", done.Progress)
	}
	// The result endpoint reports the cancellation with its typed code.
	_, err = c.JobResult(ctx, job.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobCanceled {
		t.Fatalf("result error = %v, want job_canceled", err)
	}
}

// TestBackpressureOverloaded fills a capacity-1 queue and checks rejected
// requests fail fast with the typed overloaded error (HTTP 429) instead of
// blocking, and that the rejection counter reaches /metrics.
func TestBackpressureOverloaded(t *testing.T) {
	s, _ := newTestServer(t, Config{
		MaxBatch: 1, Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0)) // surface 429s, don't retry
	ctx := context.Background()

	// Jam the pipeline by holding every replica: the running batch, the
	// dispatcher's first request and the capacity-1 queue fill up behind
	// Acquire, so further admissions must reject rather than block.
	release := holdReplicas(t, s)

	rng := rand.New(rand.NewSource(31))
	item := randomItem(rng)
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount, overloaded := 0, 0
	fire := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Infer(ctx, &api.InferRequest{Model: "m", Items: []api.InferItem{item}})
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				okCount++
				return
			}
			var ae *api.Error
			if errors.As(err, &ae) && ae.Code == api.CodeOverloaded {
				if ae.RetryAfterSeconds <= 0 {
					t.Errorf("overloaded error without retry hint: %+v", ae)
				}
				overloaded++
				return
			}
			t.Errorf("unexpected error: %v", err)
		}()
	}
	// Keep firing until a rejection is observed (the first few occupy the
	// jammed pipeline stages and block).
	deadline := time.Now().Add(10 * time.Second)
	for {
		fire()
		mu.Lock()
		got := overloaded
		mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never rejected despite jammed pipeline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	wg.Wait()
	if okCount == 0 || overloaded == 0 {
		t.Fatalf("ok=%d overloaded=%d; want both paths exercised", okCount, overloaded)
	}
	if got := s.met.rejectedTotal(); got < int64(overloaded) {
		t.Fatalf("rejected counter %d < observed 429s %d", got, overloaded)
	}
	raw, err := c.MetricsText(ctx)
	if err != nil || !strings.Contains(raw, "sickle_rejected_requests_total") {
		t.Fatalf("metrics missing rejected counter (err %v)", err)
	}
}

// TestMultiItemInferFailures pins how a multi-item call reports a failing
// item now that the handler enqueues and collects its items itself: the
// item is named, the code and the retry hint are its own — an item refused
// at admission after earlier ones were admitted, and an item cancelled
// while it waits in the queue.
func TestMultiItemInferFailures(t *testing.T) {
	s, ref := newTestServer(t, Config{
		MaxBatch: 1, Workers: 1, QueueCap: 1})
	rng := rand.New(rand.NewSource(41))
	req := &api.InferRequest{Model: "m"}
	for i := 0; i < 8; i++ { // the jammed pipeline holds three: running batch, dispatcher, queue
		req.Items = append(req.Items, randomItem(rng))
	}

	release := holdReplicas(t, s)
	go func() {
		for s.met.rejectedTotal() == 0 {
			time.Sleep(time.Millisecond)
		}
		release()
	}()
	_, err := s.doInfer(context.Background(), req)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded || ae.RetryAfterSeconds <= 0 {
		t.Fatalf("8 items into a jammed 3-slot pipeline: %v, want overloaded with a retry hint", err)
	}
	var refused int
	if _, scanErr := fmt.Sscanf(ae.Message, "item %d:", &refused); scanErr != nil || refused < 1 || refused > 4 {
		t.Fatalf("message %q does not name the refused item (1 to 4)", ae.Message)
	}

	// Of four items, at most three fit the jammed pipeline, the third
	// staying in the queue; the rest are refused.
	release = holdReplicas(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	rejected := s.met.rejectedTotal()
	go func() {
		for s.batcher.QueueDepth() == 0 && s.met.rejectedTotal() == rejected {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	req.Items = req.Items[:4]
	_, err = s.doInfer(ctx, req)
	if !errors.As(err, &ae) || ae.Code != api.CodeCanceled || !strings.HasPrefix(ae.Message, "item 0:") {
		t.Fatalf("cancelled while queued: %v, want canceled naming item 0", err)
	}
	release()

	// The cancelled items are dropped unstarted; the pipeline serves on
	// (one item a call, once the queue's one slot is free again).
	for s.batcher.QueueDepth() > 0 {
		time.Sleep(time.Millisecond)
	}
	for i, item := range req.Items {
		out, err := s.doInfer(context.Background(), &api.InferRequest{Model: "m", Items: []api.InferItem{item}})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutput(out.Outputs[0], expect(ref, item)); err != nil {
			t.Fatalf("item %d after the failures: %v", i, err)
		}
	}
}

// TestBatcherDrainTyped pins the shutdown-drain contract at the batcher
// level: requests admitted (queued) before Stop either complete with real
// results or fail fast with the typed shutting_down error — nothing hangs.
func TestBatcherDrainTyped(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 1, Workers: 1})
	release := holdReplicas(t, s)

	rng := rand.New(rand.NewSource(41))
	const n = 6
	type result struct {
		out *[]float64
		err error
	}
	items := make([]api.InferItem, n)
	wants := make([][]float64, n)
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		items[i] = randomItem(rng)
		wants[i] = expect(ref, items[i])
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := tensorFromItem(items[i])
			out, _, _, err := s.batcher.infer(context.Background(), "m", in)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			data := append([]float64(nil), out.Data...)
			results[i] = result{out: &data}
		}(i)
	}
	// Wait until the pipeline is jammed: one request runs (blocked in
	// Acquire), the dispatcher holds the next waiting for the one worker
	// slot, and the rest are queued.
	waitFor(t, "a jammed pipeline", func() bool { return s.batcher.QueueDepth() == n-2 })
	stopDone := make(chan struct{})
	go func() { s.batcher.Stop(); close(stopDone) }()
	// Once Stop has closed the stop channel, unjam.
	<-s.batcher.stop
	release()
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("batcher.Stop hung during drain")
	}
	wg.Wait()

	completed, failed := 0, 0
	for i, r := range results {
		switch {
		case r.err != nil:
			var ae *api.Error
			if !errors.As(r.err, &ae) || ae.Code != api.CodeShuttingDown {
				t.Fatalf("request %d failed with %v, want typed shutting_down", i, r.err)
			}
			failed++
		default:
			got := *r.out
			for j := range wants[i] {
				if got[j] != wants[i][j] {
					t.Fatalf("request %d: drained output differs at %d", i, j)
				}
			}
			completed++
		}
	}
	if failed == 0 {
		t.Fatalf("no request saw the typed shutting_down drain (completed=%d)", completed)
	}
	if completed == 0 {
		t.Fatalf("no admitted request completed through the drain (failed=%d)", failed)
	}
}

// TestTypedErrorEnvelope: application failures on the v2 surface carry the
// typed envelope with the code a client branches on. (The chassis-level
// 405/404/bad-JSON envelopes are pinned for both tiers by the contract
// test in internal/tier.)
func TestTypedErrorEnvelope(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, api.ErrorEnvelope) {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
			t.Fatalf("POST %s: HTTP %d without a typed envelope (%v)", path, resp.StatusCode, err)
		}
		return resp.StatusCode, env
	}

	rng := rand.New(rand.NewSource(51))
	items := []api.InferItem{randomItem(rng)}
	if code, env := post("/v2/infer", api.InferRequest{Model: "nope", Items: items}); code != http.StatusNotFound || env.Error.Code != api.CodeModelNotFound {
		t.Fatalf("unknown-model = %d %+v", code, env.Error)
	}
	if code, env := post("/v2/subsample", api.SubsampleRequest{Dataset: "no-such-dataset"}); code != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
		t.Fatalf("unknown-dataset = %d %+v", code, env.Error)
	}
	// A missing .skl shard is the caller's bad reference, not a 500.
	if code, env := post("/v2/subsample", api.SubsampleRequest{Shard: "/no/such/shard.skl"}); code != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
		t.Fatalf("missing-shard = %d %+v", code, env.Error)
	}
	// MaxEnt's cost grows as k²: a k past the histogram's bins is refused,
	// synchronously and as a job, before any clustering runs.
	tooMany := api.SubsampleRequest{Dataset: "GESTS-2048", Hypercubes: "maxent", Method: "maxent", Cube: 16, NumClusters: 1000}
	if code, env := post("/v2/subsample", tooMany); code != http.StatusBadRequest || env.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("numClusters 1000 = %d %+v", code, env.Error)
	}
	c := client.New(ts.URL)
	job, err := c.SubmitSubsampleJob(context.Background(), &tooMany)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.WaitJob(context.Background(), job.ID, 5*time.Millisecond); err != nil ||
		done.State != api.JobFailed || done.Error == nil || done.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("numClusters 1000 job = %+v, %v; want failed with invalid_argument", done, err)
	}

	// Version negotiation advertises the one surface left.
	resp, err := http.Get(ts.URL + "/api/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vi api.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil || resp.StatusCode != 200 ||
		vi.Latest != api.V2 || len(vi.Versions) != 1 || vi.Versions[0] != api.V2 {
		t.Fatalf("/api/version = %d %+v (%v)", resp.StatusCode, vi, err)
	}
}

// TestRegisterNameValidation: registry names that could smuggle path
// separators (the train job writes a checkpoint before registering) are
// rejected up front.
func TestRegisterNameValidation(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "../evil", "a/b", "a\\b", "a b", strings.Repeat("x", 129)} {
		if _, err := reg.Register(bad, testSpec, "", nil, 1); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if _, err := reg.Register("ok-name_1.2", testSpec, "", nil, 1); err != nil {
		t.Errorf("benign name rejected: %v", err)
	}
}

// tensorFromItem mirrors the handler's conversion for direct batcher use.
func tensorFromItem(it api.InferItem) *tensor.Tensor {
	return tensor.FromSlice(append([]float64(nil), it.Data...), it.Shape...)
}
