package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
	"repro/pkg/client"
)

// The counter reads the assertions in this package are written against;
// nothing outside the tests asks the collector for a value back.

// Metrics exposes the router's collector.
func (rt *Router) Metrics() *Metrics { return rt.met }

// OwnerDedupHitsTotal returns the owner-set dedup counter.
func (m *Metrics) OwnerDedupHitsTotal() int64 {
	return int64(m.ownerDedupHits.Value())
}

// RebalancesTotal returns the cumulative rebalance count.
func (m *Metrics) RebalancesTotal() int64 {
	return int64(m.rebalances.Value())
}

// RoutedTotal returns the routed counter for one replica.
func (m *Metrics) RoutedTotal(replica string) int64 {
	return int64(m.routed.With(replica).Value())
}

// FailoversTotal returns the cumulative failover count.
func (m *Metrics) FailoversTotal() int64 {
	return int64(m.failovers.Value())
}

// testSpec is the same tiny LSTM the serve tests use: input [T=3, C=4] →
// output [2].
var testSpec = train.ArchSpec{Arch: "lstm", InDim: 4, Hidden: 8, OutDim: 2}

var testShape = []int{3, 4}

// newCheckpoint builds a reference model and saves its checkpoint, so
// every replica serves identical weights and outputs are bit-checkable.
func newCheckpoint(t *testing.T) (train.Model, string) {
	t.Helper()
	ref, err := testSpec.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "m.sknn")
	if err := nn.SaveCheckpoint(ckpt, ref); err != nil {
		t.Fatal(err)
	}
	return ref, ckpt
}

// startReplica boots an in-process serve backend with model "m" loaded
// from ckpt. addr "" picks an ephemeral port.
func startReplica(t *testing.T, addr, ckpt string) *serve.InProc {
	t.Helper()
	p, err := serve.StartInProc(serve.Config{Addr: addr, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Server.Registry().Register("m", testSpec, ckpt, testShape, 2); err != nil {
		t.Fatal(err)
	}
	return p
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

func sameData(got api.InferItem, want []float64) bool {
	if len(got.Data) != len(want) {
		return false
	}
	for i := range want {
		if got.Data[i] != want[i] {
			return false
		}
	}
	return true
}

// newTestRouter builds (but does not Start) a router over the given
// backend URLs with fast probe/ejection settings.
func newTestRouter(t *testing.T, urls []string) *Router {
	t.Helper()
	rt, err := NewRouter(Config{
		URLs:       urls,
		ProbeEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// splitJobID splits the first address a client-facing job ID lists into
// its raw ID and replica ID.
func splitJobID(id string) (raw, replicaID string) {
	addr, _, _ := strings.Cut(id, jobAddrSep)
	i := strings.LastIndex(addr, jobIDSep)
	if i < 0 {
		return addr, ""
	}
	return addr[:i], addr[i+1:]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// load is the client side of the under-load acceptance tests: workers that
// run one op after another until finish, counting successes before and
// after mark and keeping every error that is not typed overloaded (which the
// SDK's retry layer absorbs and a client is told to expect).
type load struct {
	mu      sync.Mutex
	badErrs []error
	ok      [2]int // successes before and after mark
	phase   int
	stop    chan struct{}
	halt    sync.Once
	wg      sync.WaitGroup
}

// startLoad runs op on each of n workers. Models cache forward-pass state in
// struct fields, so each worker gets its own replica of the reference (same
// seed → identical weights) to compute expectations on.
func startLoad(t *testing.T, n int, op func(rng *rand.Rand, ref train.Model) error) *load {
	l := &load{stop: make(chan struct{})}
	t.Cleanup(l.halted) // a test that fails before finish still stops its workers
	for w := 0; w < n; w++ {
		ref, err := testSpec.Build(rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		l.wg.Add(1)
		go func(rng *rand.Rand) {
			defer l.wg.Done()
			for {
				select {
				case <-l.stop:
					return
				default:
				}
				err := op(rng, ref)
				l.mu.Lock()
				if err == nil {
					l.ok[l.phase]++
				} else if api.AsError(err).Code != api.CodeOverloaded {
					l.badErrs = append(l.badErrs, err)
				}
				l.mu.Unlock()
			}
		}(rand.New(rand.NewSource(int64(100 + w))))
	}
	return l
}

// inferOp is one routed Infer whose answer must be bit-identical to the
// unbatched reference.
func inferOp(c *client.Client) func(*rand.Rand, train.Model) error {
	return func(rng *rand.Rand, ref train.Model) error {
		it := randomItem(rng)
		want := expect(ref, it)
		resp, err := c.Infer(context.Background(), &api.InferRequest{Model: "m", Items: []api.InferItem{it}})
		if err == nil && !sameData(resp.Outputs[0], want) {
			err = errors.New("response differs from reference")
		}
		return err
	}
}

// mark ends the "before" phase: successes from here on count as "after".
func (l *load) mark() {
	l.mu.Lock()
	l.phase = 1
	l.mu.Unlock()
}

// waitOK waits for n successes in the current phase.
func (l *load) waitOK(t *testing.T, what string, n int) {
	t.Helper()
	waitFor(t, what, 10*time.Second, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.ok[l.phase] >= n
	})
}

// halted stops the workers and waits for them.
func (l *load) halted() {
	l.halt.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// finish stops the workers and fails on any client-visible error or an
// empty phase.
func (l *load) finish(t *testing.T, during string) {
	t.Helper()
	l.halted()
	if len(l.badErrs) > 0 {
		t.Fatalf("%d non-overloaded client-visible errors during %s, first: %v",
			len(l.badErrs), during, l.badErrs[0])
	}
	if l.ok[0] == 0 || l.ok[1] == 0 {
		t.Fatalf("load phases empty: %d before, %d after", l.ok[0], l.ok[1])
	}
}

// TestShardFailoverEndToEnd is the acceptance test for the scaling tier:
// three in-process replicas behind the router, the unchanged pkg/client
// SDK on top, a replica killed mid-load. The client must see zero errors
// other than typed overloaded (which its retry layer already absorbs), the
// dead replica must be ejected, and after respawning at the same address
// it must be re-admitted with the ring re-converging to the original
// assignment.
func TestShardFailoverEndToEnd(t *testing.T) {
	ref, ckpt := newCheckpoint(t)
	ctx := context.Background()

	replicas := make([]*serve.InProc, 3)
	urls := make([]string, 3)
	for i := range replicas {
		replicas[i] = startReplica(t, "", ckpt)
		urls[i] = replicas[i].URL
	}
	rt := newTestRouter(t, urls)
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	defer func() {
		rt.Shutdown(ctx)
		for _, p := range replicas {
			if p != nil {
				p.Close(ctx)
			}
		}
	}()

	// The SDK works unchanged against the router.
	c := client.New(ts.URL, client.WithRetry(5, 10*time.Millisecond))
	if v, err := c.Negotiate(ctx); err != nil || v != api.V2 {
		t.Fatalf("Negotiate through router = %q, %v; want v2", v, err)
	}
	models, err := c.Models(ctx)
	if err != nil || len(models) != 1 || models[0].Name != "m" {
		t.Fatalf("Models through router = %+v, %v", models, err)
	}

	rng := rand.New(rand.NewSource(17))
	item := randomItem(rng)
	want := expect(ref, item)
	out, err := c.Infer(ctx, &api.InferRequest{Model: "m", Items: []api.InferItem{item}})
	if err != nil || !sameData(out.Outputs[0], want) {
		t.Fatalf("routed infer = %+v, %v; want bit-identical reference output", out, err)
	}

	owner, ok := rt.ReplicaSet().Owner("m")
	if !ok {
		t.Fatal("no owner for model m")
	}
	var ownerIdx int
	for i, p := range replicas {
		if p.URL == owner.URL {
			ownerIdx = i
		}
	}

	l := startLoad(t, 4, inferOp(c))

	// Let the load warm up, then kill the owning replica abruptly.
	l.waitOK(t, "load warm-up", 20)
	deadAddr := replicas[ownerIdx].Addr()
	replicas[ownerIdx].Kill()
	l.mark()

	// The prober must eject the dead replica...
	waitFor(t, "ejection of the dead replica", 5*time.Second, func() bool {
		r, _ := rt.ReplicaSet().Get(owner.ID)
		return !r.Up()
	})
	// ...while the load keeps succeeding through failover the whole time.
	l.waitOK(t, "post-kill successes", 20)

	// Respawn at the same address with the same model and wait for
	// re-admission.
	replicas[ownerIdx] = startReplica(t, deadAddr, ckpt)
	waitFor(t, "re-admission of the respawned replica", 5*time.Second, func() bool {
		r, _ := rt.ReplicaSet().Get(owner.ID)
		return r.Up()
	})

	// Ring re-convergence: identical membership hashes identically, so the
	// respawned replica owns "m" again and new requests route to it.
	waitFor(t, "ring re-convergence to the original owner", 5*time.Second, func() bool {
		cur, ok := rt.ReplicaSet().Owner("m")
		return ok && cur.ID == owner.ID
	})
	routedBefore := rt.Metrics().RoutedTotal(owner.ID)
	waitFor(t, "traffic returning to the re-admitted owner", 5*time.Second, func() bool {
		return rt.Metrics().RoutedTotal(owner.ID) > routedBefore
	})

	l.finish(t, "failover")
	if rt.Metrics().FailoversTotal() == 0 {
		t.Fatal("failover counter never moved despite a killed owner")
	}
}

// TestShardJobStickyRouting: job IDs carry the accepting replica, so
// lookups resolve even when raw downstream IDs collide across replicas.
func TestShardJobStickyRouting(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()

	a := startReplica(t, "", ckpt)
	b := startReplica(t, "", ckpt)
	defer a.Close(ctx)
	defer b.Close(ctx)
	rt := newTestRouter(t, []string{a.URL, b.URL})
	rt.Start()
	defer rt.Shutdown(ctx)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	// One job through the router...
	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	job, err := c.SubmitSubsampleJob(ctx, &sub)
	if err != nil {
		t.Fatalf("submit through router: %v", err)
	}
	if !strings.Contains(job.ID, jobIDSep) {
		t.Fatalf("router job ID %q carries no replica suffix", job.ID)
	}
	// ...and one submitted directly to each backend, so both backends hold
	// a raw "job-1".
	dcA := client.New(a.URL)
	dcB := client.New(b.URL)
	if _, err := dcA.SubmitSubsampleJob(ctx, &sub); err != nil {
		t.Fatal(err)
	}
	if _, err := dcB.SubmitSubsampleJob(ctx, &sub); err != nil {
		t.Fatal(err)
	}

	// The scatter-gathered list disambiguates every job by suffix.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("list through router: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("router lists %d jobs, want 3", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate client-facing job ID %q in %+v", j.ID, jobs)
		}
		seen[j.ID] = true
		raw, rid := splitJobID(j.ID)
		if raw == "" || rid == "" {
			t.Fatalf("job ID %q not in raw@replica form", j.ID)
		}
		// Every listed ID resolves through the router.
		got, err := c.Job(ctx, j.ID)
		if err != nil {
			t.Fatalf("Job(%q): %v", j.ID, err)
		}
		if got.ID != j.ID {
			t.Fatalf("Job(%q) answered ID %q", j.ID, got.ID)
		}
	}

	// The submitted job completes and its result is reachable via the
	// sticky mapping.
	done, err := c.WaitJob(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob through router: %v", err)
	}
	if done.State != api.JobSucceeded {
		t.Fatalf("job finished %s (%v)", done.State, done.Error)
	}
	res, err := c.JobResult(ctx, job.ID)
	if err != nil || res.Subsample == nil {
		t.Fatalf("JobResult through router = %+v, %v", res, err)
	}

	// Unknown IDs answer the typed job_not_found either way.
	for _, id := range []string{"job-99@r0", "job-99", "job-1@r9"} {
		_, err := c.Job(ctx, id)
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeJobNotFound {
			t.Fatalf("Job(%q) = %v, want job_not_found", id, err)
		}
	}
}

// TestShardScatterGatherAndHealth: model listings merge across replicas,
// /api/version intersects, and /healthz aggregates with per-replica
// detail.
func TestShardScatterGatherAndHealth(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()

	a := startReplica(t, "", ckpt)
	b := startReplica(t, "", ckpt)
	defer a.Close(ctx)
	defer b.Close(ctx)
	// Distinct extra models on each backend.
	if _, err := a.Server.Registry().Register("only-a", testSpec, ckpt, testShape, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.Registry().Register("only-b", testSpec, ckpt, testShape, 1); err != nil {
		t.Fatal(err)
	}

	rt := newTestRouter(t, []string{a.URL, b.URL})
	rt.ReplicaSet().ProbeAll() // deterministic: one probe round, no background prober
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatalf("Models: %v", err)
	}
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "m,only-a,only-b" {
		t.Fatalf("merged model names = %v", names)
	}

	info, err := c.ServerVersions(ctx)
	if err != nil || info.Latest != api.V2 {
		t.Fatalf("ServerVersions through router = %+v, %v", info, err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || len(h.Replicas) != 2 {
		t.Fatalf("router health = %+v", h)
	}
	for _, rh := range h.Replicas {
		if !rh.Up {
			t.Fatalf("replica %s reported down: %+v", rh.ID, h.Replicas)
		}
	}
	if len(h.Models) == 0 || h.Models[0] != "m@v1" {
		t.Fatalf("aggregated models = %v", h.Models)
	}

	// The metrics surface carries the per-replica gauges.
	raw, err := c.MetricsText(ctx)
	if err != nil || !strings.Contains(raw, `sickle_shard_replica_up{replica="r0"} 1`) {
		t.Fatalf("metrics missing replica_up gauge (err %v):\n%s", err, raw)
	}
}

// TestShardSubmitDoesNotFailOver pins the at-most-once submission policy:
// with the owning replica dead (pre-ejection), an infer for a key it owns
// fails over to the survivor, but a job submission for the same key
// surfaces the typed unavailable instead of retrying elsewhere — the dead
// backend might have admitted the job before the connection broke.
func TestShardSubmitDoesNotFailOver(t *testing.T) {
	ref, ckpt := newCheckpoint(t)
	ctx := context.Background()

	a := startReplica(t, "", ckpt)
	b := startReplica(t, "", ckpt)
	defer b.Close(ctx)
	// No prober (Start never called): both replicas stay optimistically on
	// the ring, so the router's first contact with the dead one is the
	// request itself.
	rt := newTestRouter(t, []string{a.URL, b.URL})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))

	// Find keys owned by replica a (the one we kill): "m" may hash either
	// way, so name models until one lands on a.
	deadRep, _ := rt.ReplicaSet().Get("r0")
	key := ""
	for i := 0; i < 100 && key == ""; i++ {
		k := fmt.Sprintf("victim-%d", i)
		if owner, _ := rt.ReplicaSet().Owner(k); owner == deadRep {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key hashed to r0 in 100 tries")
	}
	if _, err := a.Server.Registry().Register(key, testSpec, ckpt, testShape, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Server.Registry().Register(key, testSpec, ckpt, testShape, 1); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	// Idempotent infer: fails over to b and still answers bit-identically.
	rng := rand.New(rand.NewSource(29))
	it := randomItem(rng)
	out, err := c.Infer(ctx, &api.InferRequest{Model: key, Items: []api.InferItem{it}})
	if err != nil || !sameData(out.Outputs[0], expect(ref, it)) {
		t.Fatalf("infer did not fail over to the survivor: %+v, %v", out, err)
	}
	if rt.Metrics().FailoversTotal() == 0 {
		t.Fatal("failover counter never moved")
	}

	// Non-idempotent submit keyed to the dead owner: typed unavailable, and
	// the survivor must have admitted nothing.
	_, err = c.SubmitSubsampleJob(ctx, &api.SubsampleRequest{
		Dataset: key, Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("submit to dead owner = %v, want typed unavailable", err)
	}
	if jobs := b.Server.Jobs().List(); len(jobs) != 0 {
		t.Fatalf("submission leaked onto the survivor: %+v", jobs)
	}
	// Once the failure streak ejects the dead owner, submissions hash to
	// the survivor and succeed.
	job, err := c.SubmitSubsampleJob(ctx, &api.SubsampleRequest{
		Dataset: key, Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1})
	if err != nil {
		t.Fatalf("submit after ejection: %v", err)
	}
	if _, rid := splitJobID(job.ID); rid != "r1" {
		t.Fatalf("post-ejection job %q not owned by the survivor", job.ID)
	}
}

// TestShardConsistentRouting: every request for one model lands on the
// same replica (its ring owner), keeping that backend's caches hot.
func TestShardConsistentRouting(t *testing.T) {
	ref, ckpt := newCheckpoint(t)
	ctx := context.Background()

	a := startReplica(t, "", ckpt)
	b := startReplica(t, "", ckpt)
	defer a.Close(ctx)
	defer b.Close(ctx)
	rt := newTestRouter(t, []string{a.URL, b.URL})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		it := randomItem(rng)
		out, err := c.Infer(ctx, &api.InferRequest{Model: "m", Items: []api.InferItem{it}})
		if err != nil || !sameData(out.Outputs[0], expect(ref, it)) {
			t.Fatalf("infer %d through router failed: %v", i, err)
		}
	}
	owner, _ := rt.ReplicaSet().Owner("m")
	if got := rt.Metrics().RoutedTotal(owner.ID); got != 10 {
		t.Fatalf("owner %s served %d/10 requests; routing is not consistent", owner.ID, got)
	}
	for _, r := range rt.ReplicaSet().Replicas() {
		if r.ID != owner.ID && rt.Metrics().RoutedTotal(r.ID) != 0 {
			t.Fatalf("non-owner %s served traffic for a single hot model", r.ID)
		}
	}
}
