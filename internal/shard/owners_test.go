package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/api"
	"repro/pkg/client"
)

// replicatedFleet boots n in-proc replicas behind a K=2 router (not
// started: no prober) and returns them with a client of the router. kill
// stops replica i; every replica still running is closed at cleanup.
func replicatedFleet(t *testing.T, n int) (*Router, []*serve.InProc, *client.Client, func(i int)) {
	t.Helper()
	_, ckpt := newCheckpoint(t)
	reps := make([]*serve.InProc, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = startReplica(t, "", ckpt)
		urls[i] = reps[i].URL
	}
	rt := newTestRouterK(t, urls, 2)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		for _, p := range reps {
			if p != nil {
				p.Close(context.Background())
			}
		}
	})
	kill := func(i int) {
		reps[i].Kill()
		reps[i] = nil
	}
	return rt, reps, client.New(ts.URL, client.WithRetry(0, 0)), kill
}

// indexOf finds the in-proc replica a ring member fronts.
func indexOf(t *testing.T, reps []*serve.InProc, rep *Replica) int {
	t.Helper()
	for i, p := range reps {
		if p != nil && p.URL == rep.URL {
			return i
		}
	}
	t.Fatalf("no in-proc replica at %s", rep.URL)
	return -1
}

func keyedSubsample(seed int64) (*api.SubmitJobRequest, string) {
	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: seed}
	return &api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub,
		IdempotencyKey: api.NewIdempotencyKey()}, subsampleKey(&sub)
}

// TestShardReplicatedResubmitSameID: at K=2 a keyed job's ID lists both
// owners' copies oldest first — the ring's primary, admitted before its
// copy, leads while the replicas share a clock (as these in-proc ones
// do) — and a resubmission of the key gets that ID back byte for byte.
// An unkeyed job keeps the single address of the replica that accepted
// it.
func TestShardReplicatedResubmitSameID(t *testing.T) {
	ctx := context.Background()
	rt, _, c, _ := replicatedFleet(t, 3)
	req, routeKey := keyedSubsample(1)
	owners := rt.ReplicaSet().Sequence(routeKey, 2)

	first, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	var want []jobAddr
	for _, o := range owners {
		cp, err := o.C.JobByKey(ctx, req.IdempotencyKey)
		if err != nil {
			t.Fatalf("copy on %s: %v", o.ID, err)
		}
		want = append(want, jobAddr{cp.ID, o})
	}
	if first.ID != jobID(want) {
		t.Fatalf("keyed job ID = %q, want the owner set's copies %q", first.ID, jobID(want))
	}
	again, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("keyed resubmit: %v", err)
	}
	if again.ID != first.ID {
		t.Fatalf("resubmission answered %q, the first submission %q", again.ID, first.ID)
	}
	if done, err := c.WaitJob(ctx, again.ID, 5*time.Millisecond); err != nil || done.ID != first.ID {
		t.Fatalf("read by the listed ID = %+v, %v", done, err)
	}

	unkeyed := *req
	unkeyed.IdempotencyKey = ""
	job, err := c.SubmitJob(ctx, &unkeyed)
	if err != nil {
		t.Fatalf("unkeyed submit: %v", err)
	}
	if raw, rid := splitJobID(job.ID); job.ID != raw+jobIDSep+rid || rid != owners[0].ID {
		t.Fatalf("unkeyed job ID = %q, want one address on %s", job.ID, owners[0].ID)
	}
}

// TestShardReplicatedListingID: GET /v2/jobs lists a keyed K=2 job once,
// under the ID its submission returned byte for byte, and that listed ID
// still reads the job from the copy once the primary dies.
func TestShardReplicatedListingID(t *testing.T) {
	ctx := context.Background()
	rt, reps, c, kill := replicatedFleet(t, 3)
	req, routeKey := keyedSubsample(1)
	owners := rt.ReplicaSet().Sequence(routeKey, 2)

	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	if _, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var listed []string
	for _, j := range list {
		if j.IdempotencyKey == req.IdempotencyKey {
			listed = append(listed, j.ID)
		}
	}
	if len(listed) != 1 || listed[0] != job.ID {
		t.Fatalf("listing shows the key as %q, want once as the submit's %q", listed, job.ID)
	}

	kill(indexOf(t, reps, owners[0]))
	got, err := c.Job(ctx, listed[0])
	if err != nil {
		t.Fatalf("Job by the listed ID, primary dead: %v", err)
	}
	if _, rid := splitJobID(got.ID); rid != owners[1].ID {
		t.Fatalf("read answered as %q, want the copy on %s", got.ID, owners[1].ID)
	}
}

// TestKeyedJobOneID: on a healthy fleet of four replicas, at K = 1, 2 and
// 3, every ID handed out for a keyed job — the submit's, the resubmit's,
// the router's key lookup's and the listing's — is the same byte for
// byte, and a read by it answers. Each job names a shard path that does
// not exist, so it fails fast, but its copies, IDs and listing are real;
// the paths spread the routing keys over the ring.
func TestKeyedJobOneID(t *testing.T) {
	ctx := context.Background()
	urls := make([]string, 4)
	for i := range urls {
		p, err := serve.StartInProc(serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close(context.Background()) })
		urls[i] = p.URL
	}
	const keys = 16
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			ts := httptest.NewServer(newTestRouterK(t, urls, k).Handler())
			defer ts.Close()
			c := client.New(ts.URL, client.WithRetry(0, 0))
			submitted := map[string]string{} // idempotency key → the submit's ID
			for i := range keys {
				sub := api.SubsampleRequest{Shard: fmt.Sprintf("/nowhere/k%d/%x.skl", k, i*7919)}
				req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub,
					IdempotencyKey: api.NewIdempotencyKey()}
				first, err := c.SubmitJob(ctx, &req)
				if err != nil {
					t.Fatalf("submit %s: %v", sub.Shard, err)
				}
				submitted[req.IdempotencyKey] = first.ID
				if again, err := c.SubmitJob(ctx, &req); err != nil || again.ID != first.ID {
					t.Errorf("%s: resubmit = %+v, %v; the submit gave %q", sub.Shard, again, err, first.ID)
				}
				if byKey, err := c.JobByKey(ctx, req.IdempotencyKey); err != nil || byKey.ID != first.ID {
					t.Errorf("%s: JobByKey = %+v, %v; the submit gave %q", sub.Shard, byKey, err, first.ID)
				}
				if read, err := c.Job(ctx, first.ID); err != nil || read.IdempotencyKey != req.IdempotencyKey {
					t.Errorf("%s: read by %q = %+v, %v", sub.Shard, first.ID, read, err)
				}
			}
			list, err := c.Jobs(ctx)
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			listed := 0
			for _, j := range list {
				if want, ok := submitted[j.IdempotencyKey]; ok {
					listed++
					if j.ID != want {
						t.Errorf("listing names key %s %q, its submit %q", j.IdempotencyKey, j.ID, want)
					}
				}
			}
			if listed != keys {
				t.Fatalf("listing shows %d entries under the %d keys, want one each", listed, keys)
			}
		})
	}
}

// TestShardReplicatedReadAfterRouterRestart: a keyed job's ID carries its
// copies' addresses, so a router built after the submission — with no
// memory of it — still reads the job from the copy once its primary dies.
func TestShardReplicatedReadAfterRouterRestart(t *testing.T) {
	ctx := context.Background()
	rt, reps, c, kill := replicatedFleet(t, 3)
	req, routeKey := keyedSubsample(1)
	owners := rt.ReplicaSet().Sequence(routeKey, 2)

	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	if done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil || done.State != api.JobSucceeded {
		t.Fatalf("job = %+v, %v", done, err)
	}
	// Copies execute independently: let the copy finish too, so the read
	// below cannot see it still running.
	cp, err := owners[1].C.JobByKey(ctx, req.IdempotencyKey)
	if err == nil {
		cp, err = owners[1].C.WaitJob(ctx, cp.ID, 5*time.Millisecond)
	}
	if err != nil || cp.State != api.JobSucceeded {
		t.Fatalf("copy on %s = %+v, %v", owners[1].ID, cp, err)
	}

	urls := make([]string, len(reps))
	for i, p := range reps {
		urls[i] = p.URL
	}
	fresh := newTestRouterK(t, urls, 2)
	ts := httptest.NewServer(fresh.Handler())
	defer ts.Close()
	c2 := client.New(ts.URL, client.WithRetry(0, 0))
	kill(indexOf(t, reps, owners[0]))

	got, err := c2.Job(ctx, job.ID)
	if err != nil || got.State != api.JobSucceeded {
		t.Fatalf("Job through the new router, primary dead = %+v, %v", got, err)
	}
	if _, rid := splitJobID(got.ID); rid != owners[1].ID {
		t.Fatalf("read answered as %q, want the copy on %s first", got.ID, owners[1].ID)
	}
	if res, err := c2.JobResult(ctx, job.ID); err != nil || res.Subsample == nil {
		t.Fatalf("JobResult through the new router, primary dead = %+v, %v", res, err)
	}
}

// TestShardReplicatedCancelReachesEveryCopy: with every job slot parked
// on both owners, a keyed job is pending on both; a cancel through the
// router must reach the copy as well, so once the primary dies a read
// that fails over to the copy still says canceled.
func TestShardReplicatedCancelReachesEveryCopy(t *testing.T) {
	ctx := context.Background()
	rt, reps, c, kill := replicatedFleet(t, 2)
	release := make(chan struct{})
	defer close(release)
	park := func(ctx context.Context, _ func(string, int, int)) (*api.JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &api.JobResult{}, nil
	}
	const workers = 2 // a replica's job slots
	for _, p := range reps {
		for range workers {
			if _, _, err := p.Server.Jobs().Submit(ctx, api.JobSubsample, park, serve.SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "both job slots parked", 5*time.Second, func() bool {
			return p.Server.Jobs().Stats()[string(api.JobRunning)] == workers
		})
	}

	req, routeKey := keyedSubsample(1)
	owners := rt.ReplicaSet().Sequence(routeKey, 2)
	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	if job.State != api.JobPending {
		t.Fatalf("keyed job = %+v, want pending behind the parked slots", job)
	}
	if _, err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("cancel through the router: %v", err)
	}
	kill(indexOf(t, reps, owners[0]))

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	got, err := c.WaitJob(wctx, job.ID, 5*time.Millisecond)
	if err != nil || got.State != api.JobCanceled {
		t.Fatalf("read after the primary died = %+v, %v; want canceled", got, err)
	}
}

// FuzzJobAddress: the job-ID parser never panics; an ID it accepts lists
// at most one address per replica and renders back to itself; and every
// ID it refuses (an empty raw ID, a missing "@", an unknown or repeated
// replica) is answered by the sticky routes as a typed job_not_found,
// never a 500. Seed corpus in testdata/fuzz/FuzzJobAddress.
func FuzzJobAddress(f *testing.F) {
	rt, err := NewRouter(Config{URLs: []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, id string) {
		addrs, err := rt.jobAddrs(id)
		if err == nil {
			if got := jobID(addrs); got != id || len(addrs) > 3 {
				t.Fatalf("accepted %q as %d addresses rendering %q", id, len(addrs), got)
			}
			return
		}
		if ae := api.AsError(err); ae.Code != api.CodeJobNotFound {
			t.Fatalf("refused %q with %v, want job_not_found", id, err)
		}
		for _, h := range []func(http.ResponseWriter, *http.Request) error{
			rt.handleGetJob, rt.handleJobResult, rt.handleCancelJob,
		} {
			r := httptest.NewRequest(http.MethodGet, "/v2/jobs/x", nil)
			r.SetPathValue("id", id)
			w := httptest.NewRecorder()
			h(w, r)
			var env api.ErrorEnvelope
			if w.Code != http.StatusNotFound || json.Unmarshal(w.Body.Bytes(), &env) != nil ||
				env.Error == nil || env.Error.Code != api.CodeJobNotFound {
				t.Fatalf("sticky route on %q = %d %s, want a typed job_not_found", id, w.Code, w.Body)
			}
		}
	})
}
