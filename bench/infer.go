package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/sickle"
	"repro/pkg/api"
	"repro/pkg/client"
)

// onlineInferDef is the online hot path: SDK → router → replica →
// batcher → forward pass.
var onlineInferDef = workloadDef{
	name: "online-infer",
	why: "the online hot path: pkg/client, pkg/api JSON, shard routing, the serve micro-batcher and " +
		"forward-only tensor kernels; bypasses durable, sampling and train",
	block:   inferPool,
	warmup:  15 * inferPool,
	clients: 2,
	setup:   setupOnlineInfer,
}

const (
	inferPool  = 64 // distinct inputs, drawn from by every op
	inferItems = 4  // items per Infer call
)

// inferOpItems picks the pool entries op i sends.
func inferOpItems(seed int64, i int) [inferItems]int {
	var out [inferItems]int
	for k := range out {
		out[k] = int(mix(seed, i, k) % inferPool)
	}
	return out
}

type onlineInfer struct {
	*fleet
	seed   int64
	d      *grid.Dataset
	sdks   []*sdk
	models []string        // one name per replica, both serving the checkpoint trained in set-up
	pool   []api.InferItem // the inputs
	ref    [][]float64     // per pool entry, the output of a serial single-item request
}

func setupOnlineInfer(ctx context.Context, e *env) (workload, error) {
	// Train the served model with the paper loop's own pass.
	_, end := e.rec.begin(-1, -1, "synth.build")
	d, err := sickle.BuildDataset(paperDataset, sickle.Small)
	end()
	if err != nil {
		return nil, err
	}
	pass, err := paperPass(ctx, nil, -1, -1, d, e.seed, nil)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.dir, "infer-model.sknn")
	if err := nn.SaveCheckpoint(ckpt, pass.model); err != nil {
		return nil, err
	}

	f, err := startFleet(e.dir, false, 1)
	if err != nil {
		return nil, err
	}
	w := &onlineInfer{seed: e.seed, d: d, fleet: f}
	ready := false
	defer func() {
		if !ready {
			f.close()
		}
	}()
	for c := 0; c < e.clients; c++ {
		w.sdks = append(w.sdks, newSDK(f.url))
	}

	// Infer routes by model name, so one name would leave a replica idle:
	// register the checkpoint under the first candidate name each replica
	// owns on the hash ring.
	owned := map[string]bool{}
	shape := pass.examples[0].Input.Shape
	for n := 0; len(w.models) < len(f.replicas) && n < 64; n++ {
		name := fmt.Sprintf("bench-%d", n)
		owner, ok := f.router.ReplicaSet().Owner(name)
		if !ok || owned[owner.ID] {
			continue
		}
		owned[owner.ID] = true
		w.models = append(w.models, name)
		for _, p := range f.replicas {
			if _, err := p.Server.Registry().Register(name, paperSpec(d), ckpt, shape, 2); err != nil {
				return nil, err
			}
		}
	}
	if len(w.models) != len(f.replicas) {
		return nil, fmt.Errorf("found model names for %d of %d replicas", len(w.models), len(f.replicas))
	}

	// The input pool, and per input the reference output of a serial
	// single-item request: the batcher's contract is that batched outputs
	// are bit-identical to it.
	n := 1
	for _, s := range shape {
		n *= s
	}
	for p := 0; p < inferPool; p++ {
		item := api.InferItem{Shape: shape, Data: make([]float64, n)}
		for k := range item.Data {
			item.Data[k] = float64(int64(mix(e.seed, -1-p, k)>>11))/(1<<52) - 1 // uniform in [-1, 1)
		}
		w.pool = append(w.pool, item)
		out, err := w.sdks[0].c.Infer(ctx, &api.InferRequest{Model: w.models[0], Items: []api.InferItem{item}})
		if err != nil {
			return nil, fmt.Errorf("reference request %d: %w", p, err)
		}
		w.ref = append(w.ref, out.Outputs[0].Data)
	}
	ready = true
	return w, nil
}

func (w *onlineInfer) request(i int) (*api.InferRequest, [inferItems]int) {
	picks := inferOpItems(w.seed, i)
	req := &api.InferRequest{Model: w.models[i%len(w.models)]}
	for _, p := range picks {
		req.Items = append(req.Items, w.pool[p])
	}
	return req, picks
}

func (w *onlineInfer) check(out *api.InferResponse, picks [inferItems]int) error {
	if len(out.Outputs) != inferItems {
		return fmt.Errorf("%d outputs for %d items", len(out.Outputs), inferItems)
	}
	for k, p := range picks {
		got, want := out.Outputs[k].Data, w.ref[p]
		if len(got) != len(want) {
			return fmt.Errorf("item %d: %d values, reference has %d", k, len(got), len(want))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return fmt.Errorf("item %d value %d: %v differs from the serial reference %v", k, j, got[j], want[j])
			}
		}
	}
	return nil
}

func (w *onlineInfer) op(ctx context.Context, i int, rec *recorder) (time.Duration, error) {
	c := w.sdks[i%len(w.sdks)].c
	req, picks := w.request(i)
	sampled := rec != nil && i%traceEvery == 0
	traceID := ""
	if sampled {
		ctx, traceID = tracedCtx(ctx)
	}
	t0 := time.Now()
	opID, endOp := rec.begin(i, -1, "op")
	callID, endCall := rec.begin(i, opID, "client.infer")
	out, err := c.Infer(ctx, req)
	endCall()
	endOp()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if err := w.check(out, picks); err != nil {
		return lat, err
	}
	if !sampled {
		return lat, nil
	}
	reqBody, _ := json.Marshal(req)  // sizes only; both marshal
	respBody, _ := json.Marshal(out) // without error for these types
	rec.count("api.infer_req_bytes", float64(len(reqBody)))
	rec.count("api.infer_resp_bytes", float64(len(respBody)))
	rec.count("api.infer_bodies", 1)
	return lat, fetchTrace(ctx, c, traceID, rec, i, callID)
}

func (w *onlineInfer) traceEnd(ctx context.Context, rec *recorder) error {
	d, err := w.windowDelta(ctx, rec)
	if err != nil {
		return err
	}
	rec.count("serve.batch_sum", d.sum("sickle_batch_size_sum"))
	rec.count("serve.batch_count", d.sum("sickle_batch_size_count"))
	rec.count("serve.rejected", d.sum("sickle_rejected_requests_total"))
	rec.count("serve.infer_requests", d.sum("sickle_requests_total", `route="/v2/infer"`))

	// The router hop: the same requests through the router and straight
	// to the replica that owns the model, alternating, one caller.
	for i := 0; i < 10*probeReps; i++ {
		req, picks := w.request(i)
		owner, ok := w.router.ReplicaSet().Owner(req.Model)
		if !ok {
			return fmt.Errorf("no owner for model %s", req.Model)
		}
		for _, hop := range []struct {
			name string
			c    *client.Client
		}{
			{"probe.client.infer_routed", w.sdks[0].c},
			{"probe.client.infer_direct", client.New(owner.URL)},
		} {
			_, end := rec.begin(-1, -1, hop.name)
			out, err := hop.c.Infer(ctx, req)
			end()
			if err != nil {
				return err
			}
			if err := w.check(out, picks); err != nil {
				return err
			}
		}
	}
	return probeModel(rec, w.d, w.seed)
}
