package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
	"repro/pkg/api"
	"repro/pkg/client"
)

// startDurableReplica boots an in-process serve backend persisting job
// state to dataDir, with model "m" loaded from ckpt.
func startDurableReplica(t *testing.T, addr, ckpt, dataDir string) *serve.InProc {
	t.Helper()
	p, err := serve.StartInProc(serve.Config{
		Addr: addr, MaxBatch: 4, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Server.Registry().Register("m", testSpec, ckpt, testShape, 2); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardDurableRecoveryKeyedRetry is the fleet-level acceptance test
// for the durability tier: the replica owning a keyed subsample job
// crashes with the job unfinished on disk (WAL crash point before the
// terminal record, then Kill), is respawned on the same address and data
// directory, recovers and re-runs the job — and a keyed retry through
// the router lands on the original job, so the client observes exactly
// one job across the fleet. The recovery event is visible in the
// router's scatter-gathered journal.
func TestShardDurableRecoveryKeyedRetry(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()
	base := t.TempDir()

	// Freeze the WAL just before the terminal record: on disk the job will
	// be mid-run forever, however far the in-memory runner got. Both
	// replicas are armed, but at replication 1 only the key's owner runs
	// the job.
	t.Setenv(durable.CrashPointEnv, "before:terminal")
	dirs := []string{filepath.Join(base, "r0"), filepath.Join(base, "r1")}
	reps := make([]*serve.InProc, 2)
	urls := make([]string, 2)
	for i := range reps {
		reps[i] = startDurableReplica(t, "", ckpt, dirs[i])
		urls[i] = reps[i].URL
	}
	rt := newTestRouter(t, urls)
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	defer func() {
		rt.Shutdown(ctx)
		for _, p := range reps {
			if p != nil {
				p.Close(ctx)
			}
		}
	}()
	c := client.New(ts.URL, client.WithRetry(3, 10*time.Millisecond))

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	owner, ok := rt.ReplicaSet().Owner(subsampleKey(&sub))
	if !ok {
		t.Fatal("no owner for the subsample key")
	}
	ownerIdx := -1
	for i, p := range reps {
		if p.URL == owner.URL {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s matches no replica", owner.URL)
	}

	key := api.NewIdempotencyKey()
	req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: key}
	job, err := c.SubmitJob(ctx, &req)
	if err != nil {
		t.Fatalf("submit through router: %v", err)
	}
	if raw, rid := splitJobID(job.ID); raw == "" || rid != owner.ID {
		t.Fatalf("job %q not admitted by the key's owner %s", job.ID, owner.ID)
	}
	if done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil || done.State != api.JobSucceeded {
		t.Fatalf("pre-crash job = %+v, %v", done, err)
	}

	// Crash the owner and wait for its ejection.
	deadAddr := reps[ownerIdx].Addr()
	reps[ownerIdx].Kill()
	waitFor(t, "ejection of the crashed owner", 5*time.Second, func() bool {
		r, _ := rt.ReplicaSet().Get(owner.ID)
		return !r.Up()
	})

	// Respawn on the same address AND the same data dir, disarmed: the WAL
	// replay re-enqueues the interrupted job under its original identity.
	t.Setenv(durable.CrashPointEnv, "")
	reps[ownerIdx] = startDurableReplica(t, deadAddr, ckpt, dirs[ownerIdx])
	waitFor(t, "re-admission of the respawned owner", 5*time.Second, func() bool {
		r, _ := rt.ReplicaSet().Get(owner.ID)
		return r.Up()
	})

	// The recovered job finishes again, reachable through the router's
	// sticky job mapping under its pre-crash ID.
	done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil || done.State != api.JobSucceeded {
		t.Fatalf("recovered job through router = %+v, %v", done, err)
	}
	if res, err := c.JobResult(ctx, job.ID); err != nil || res.Subsample == nil {
		t.Fatalf("recovered result through router = %+v, %v", res, err)
	}

	// A keyed retry of the original submission hashes back to the
	// recovered owner and deduplicates onto the original job...
	again, err := c.SubmitJob(ctx, &req)
	if err != nil {
		t.Fatalf("keyed retry after recovery: %v", err)
	}
	if again.ID != job.ID {
		t.Fatalf("keyed retry created %q, want original %q", again.ID, job.ID)
	}
	// ...so the fleet holds exactly one job.
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("fleet jobs = %+v, %v; want exactly the recovered job", jobs, err)
	}

	// The recovery shows up in the scatter-gathered fleet journal.
	resp, err := http.Get(ts.URL + "/debug/events?type=recovery")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"type":"recovery"`) {
		t.Fatalf("no recovery event in the fleet journal:\n%s", body)
	}
}

// TestShardKeyedSubmitFailsOver complements TestShardSubmitDoesNotFailOver:
// with an idempotency key attached, a submission aimed at a dead primary
// may safely retry on the next ring candidate instead of surfacing
// unavailable — the key lets the backend deduplicate, so the failover
// cannot double-run the job.
func TestShardKeyedSubmitFailsOver(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()

	a := startReplica(t, "", ckpt)
	b := startReplica(t, "", ckpt)
	// No prober: the router's first contact with the dead replica is the
	// submission itself.
	rt := newTestRouter(t, []string{a.URL, b.URL})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	owner, ok := rt.ReplicaSet().Owner(subsampleKey(&sub))
	if !ok {
		t.Fatal("no owner for the subsample key")
	}
	victim, survivor := a, b
	if owner.URL == b.URL {
		victim, survivor = b, a
	}
	victim.Kill()
	defer survivor.Close(ctx)

	job, err := c.SubmitJob(ctx, &api.SubmitJobRequest{
		Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: api.NewIdempotencyKey()})
	if err != nil {
		t.Fatalf("keyed submit with dead owner = %v, want failover success", err)
	}
	if _, rid := splitJobID(job.ID); rid == owner.ID {
		t.Fatalf("job %q claims the dead owner admitted it", job.ID)
	}
	if rt.Metrics().FailoversTotal() == 0 {
		t.Fatal("failover counter never moved for the keyed submission")
	}
	if jobs := survivor.Server.Jobs().List(); len(jobs) != 1 {
		t.Fatalf("survivor holds %d jobs, want exactly the failed-over one", len(jobs))
	}
}
