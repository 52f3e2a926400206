package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/pkg/api"
)

// onlineJobsDef is the control plane and the durability tier: keyed
// subsample jobs submitted through the router to a replicated owner set.
var onlineJobsDef = workloadDef{
	name: "online-jobs",
	why: "control plane and durability: shard owner-set fan-out, serve JobManager, durable WAL append and " +
		"CAS, sampling reached through the API; the only workload where replicated execution (K x) shows",
	block:   jobBlock,
	warmup:  8 * jobBlock,
	clients: 2,
	setup:   setupOnlineJobs,
}

const (
	jobBlock   = 10 // ops per mix pattern: 8 unique, 1 CAS hit, 1 key replay
	jobDataset = "GESTS-8192"
	jobCubes   = 8
	jobEdge    = 16
	jobPoints  = 410
	jobPoll    = 5 * time.Millisecond
)

// jobKind is what op i of the mix does.
type jobKind int

const (
	jobUnique jobKind = iota // new key, content never seen: executes
	jobCASHit                // new key, an earlier op's content: served from the CAS
	jobReplay                // an earlier op's key and content: must return that op's job
)

// jobOp is op i of the deterministic mix: exactly 8 unique, 1 CAS hit
// and 1 replay per block of 10. ref is the earlier unique op whose
// content (CAS hit) or key and content (replay) the op reuses; it is
// drawn from the unique ops between 3 and 22 ops back, so it has long
// completed and is well inside the replicas' 256-job retention.
func jobOp(seed int64, i int) (kind jobKind, ref int) {
	switch i % jobBlock {
	case jobBlock - 2:
		kind = jobCASHit
	case jobBlock - 1:
		kind = jobReplay
	default:
		return jobUnique, i
	}
	var earlier []int
	for j := max(0, i-22); j <= i-3; j++ {
		if j%jobBlock < jobBlock-2 {
			earlier = append(earlier, j)
		}
	}
	return kind, earlier[mix(seed, i, 0)%uint64(len(earlier))]
}

// jobRequest is the submission of op i: content is the subsample seed
// (every other parameter is fixed), so reusing op ref's content is
// reusing its seed.
func jobRequest(seed int64, i int) *api.SubmitJobRequest {
	kind, ref := jobOp(seed, i)
	keyOf := i
	if kind == jobReplay {
		keyOf = ref
	}
	return &api.SubmitJobRequest{
		Type:           api.JobSubsample,
		IdempotencyKey: fmt.Sprintf("bench-%d-%d", seed, keyOf),
		Subsample: &api.SubsampleRequest{
			Dataset: jobDataset, Scale: "small", Snapshot: 0,
			Hypercubes: "maxent", Method: "maxent",
			NumHypercubes: jobCubes, NumSamples: jobPoints, Cube: jobEdge,
			Seed: seed*1_000_000 + int64(ref),
		},
	}
}

// jobOutcome is what a completed op observed, kept for the ops that
// refer back to it.
type jobOutcome struct {
	id     string
	result api.SubsampleResponse
}

type onlineJobs struct {
	*fleet
	seed int64
	dir  string
	sdks []*sdk

	mu        sync.Mutex
	done      map[int]jobOutcome
	completed *sync.Cond // signalled when an op lands in done
}

func setupOnlineJobs(ctx context.Context, e *env) (workload, error) {
	f, err := startFleet(e.dir, true, fleetReplicas)
	if err != nil {
		return nil, err
	}
	w := &onlineJobs{seed: e.seed, dir: e.dir, fleet: f, done: map[int]jobOutcome{}}
	w.completed = sync.NewCond(&w.mu)
	for c := 0; c < e.clients; c++ {
		w.sdks = append(w.sdks, newSDK(f.url))
	}
	return w, nil
}

// outcome waits for op ref to have completed; with two callers it almost
// always has, three or more ops ago.
func (w *onlineJobs) outcome(ref int) jobOutcome {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if o, ok := w.done[ref]; ok {
			return o
		}
		w.completed.Wait()
	}
}

func (w *onlineJobs) op(ctx context.Context, i int, rec *recorder) (time.Duration, error) {
	caller := w.sdks[i%len(w.sdks)]
	c := caller.c
	kind, ref := jobOp(w.seed, i)
	req := jobRequest(w.seed, i)
	var orig jobOutcome
	if kind != jobUnique {
		orig = w.outcome(ref)
	}
	sampled := rec != nil && i%traceEvery == 0
	traceID := ""
	if sampled {
		ctx, traceID = tracedCtx(ctx)
	}

	requests := caller.reqs.n.Load()
	t0 := time.Now()
	opID, endOp := rec.begin(i, -1, "op")
	_, end := rec.begin(i, opID, "client.submit")
	job, err := c.SubmitJob(ctx, req)
	end()
	var final *api.Job
	var res *api.JobResult
	if err == nil {
		_, end = rec.begin(i, opID, "client.wait")
		final, err = c.WaitJob(ctx, job.ID, jobPoll)
		end()
	}
	if err == nil && final.State == api.JobSucceeded {
		_, end = rec.begin(i, opID, "client.result")
		res, err = c.JobResult(ctx, job.ID)
		end()
	}
	endOp()
	lat := time.Since(t0)
	// Whatever else this op did, later ops may be waiting on it.
	defer func() {
		w.mu.Lock()
		if _, ok := w.done[i]; !ok {
			w.done[i] = jobOutcome{}
		}
		w.mu.Unlock()
		w.completed.Broadcast()
	}()
	if err != nil {
		return lat, err
	}

	// Output check.
	if final.State != api.JobSucceeded {
		return lat, fmt.Errorf("job %s ended %s: %v", job.ID, final.State, final.Error)
	}
	if res.Subsample == nil || res.Subsample.Cubes != jobCubes || res.Subsample.Points != jobCubes*jobPoints {
		return lat, fmt.Errorf("job %s result %+v, want %d cubes of %d points", job.ID, res.Subsample, jobCubes, jobPoints)
	}
	switch kind {
	case jobReplay:
		if job.ID != orig.id {
			return lat, fmt.Errorf("replayed key of op %d returned job %s, the original was %s", ref, job.ID, orig.id)
		}
		fallthrough
	case jobCASHit:
		// Served from the stored bytes, so equal in every field,
		// the original's elapsed time included.
		if *res.Subsample != orig.result {
			return lat, fmt.Errorf("result %+v differs from op %d's %+v", *res.Subsample, ref, orig.result)
		}
	}
	w.mu.Lock()
	w.done[i] = jobOutcome{id: job.ID, result: *res.Subsample}
	delete(w.done, i-64) // nothing refers further back than 22 ops
	w.mu.Unlock()

	if rec != nil {
		rec.count("client.polls", float64(caller.reqs.n.Load()-requests-2)) // all but the submit and the result
		if kind == jobUnique {
			rec.count("jobs.executing_ops", 1)
		}
		rec.add(i, opID, "serve.job_queue", final.CreatedAt, final.StartedAt.Sub(final.CreatedAt).Seconds())
		rec.add(i, opID, "serve.job_exec", final.StartedAt, final.FinishedAt.Sub(final.StartedAt).Seconds())
	}
	if sampled {
		return lat, fetchTrace(ctx, c, traceID, rec, i, opID)
	}
	return lat, nil
}

func (w *onlineJobs) traceEnd(ctx context.Context, rec *recorder) error {
	d, err := w.windowDelta(ctx, rec)
	if err != nil {
		return err
	}
	// A CAS miss is a job that went on to execute.
	rec.count("serve.executions", d.sum("sickle_dedup_misses_total"))
	rec.count("durable.dedup_hits", d.sum("sickle_dedup_hits_total"))
	rec.count("durable.dedup_misses", d.sum("sickle_dedup_misses_total"))
	rec.count("serve.cache_hits", d.sum("sickle_cache_hits_total"))
	rec.count("serve.cache_misses", d.sum("sickle_cache_misses_total"))
	rec.count("shard.owner_replications", d.sum("sickle_shard_owner_replications_total"))
	rec.count("shard.owner_dedup_hits", d.sum("sickle_shard_owner_dedup_hits_total"))
	rec.count("durable.wal_appends", d.sum("sickle_wal_append_seconds_count"))
	rec.count("durable.wal_append_s", d.sum("sickle_wal_append_seconds_sum"))
	rec.count("durable.wal_bytes", d.sum("sickle_wal_appended_bytes_total"))
	if err := probeWAL(rec, w.dir); err != nil {
		return err
	}

	// The sampling a job runs, replayed directly: the layer's share of an
	// executing op.
	_, end := rec.begin(-1, -1, "synth.build")
	ds, err := sickle.BuildDataset(jobDataset, sickle.Small)
	end()
	if err != nil {
		return err
	}
	for k := 0; k < probeReps; k++ {
		sub := jobRequest(w.seed, k).Subsample
		_, err := twoPhase(ctx, rec, -1, -1, ds, sampling.PipelineConfig{
			Hypercubes: sub.Hypercubes, Method: sub.Method,
			NumHypercubes: sub.NumHypercubes, NumSamples: sub.NumSamples,
			CubeSx: sub.Cube, Seed: sub.Seed,
		})
		if err != nil {
			return err
		}
	}
	return probeSamplers(ctx, rec, ds, w.seed)
}
