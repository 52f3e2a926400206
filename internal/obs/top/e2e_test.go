package top

// The flight-recorder acceptance tests: a router fronting two live
// replicas, observed exclusively through the same Collect path that
// `sickle-top -once` serializes to JSON — if these pass, the console
// sees what an operator needs to see.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/train"
	"repro/pkg/api"
	"repro/pkg/client"
)

var e2eSpec = train.ArchSpec{Arch: "lstm", InDim: 4, Hidden: 8, OutDim: 2}
var e2eShape = []int{3, 4}

// e2eModels spreads routed load over the ring: distinct model names hash
// to distinct owners, so both replicas serve traffic.
var e2eModels = []string{"m0", "m1", "m2", "m3", "m4", "m5"}

func e2eCheckpoint(t *testing.T) string {
	t.Helper()
	ref, err := e2eSpec.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "m.sknn")
	if err := nn.SaveCheckpoint(ckpt, ref); err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// startReplica boots an in-process serve backend with every e2e model
// registered and a fast-sampling flight recorder.
func startReplica(t *testing.T, addr, ckpt string, slos []slo.Objective) *serve.InProc {
	t.Helper()
	p, err := serve.StartInProc(serve.Config{
		Addr: addr, MaxBatch: 4,
		HistoryInterval: 20 * time.Millisecond,
		SLOs:            slos,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range e2eModels {
		if _, err := p.Server.Registry().Register(m, e2eSpec, ckpt, e2eShape, 2); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inferLoad drives round-robin inference over every model until stop is
// closed, through the router's retrying client so failover noise does
// not fail the load loop.
func inferLoad(c *client.Client, stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		item := api.InferItem{Shape: e2eShape, Data: make([]float64, 12)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			c.Infer(ctx, &api.InferRequest{
				Model: e2eModels[i%len(e2eModels)],
				Items: []api.InferItem{item},
			})
			cancel()
		}
	}()
}

func collect(t *testing.T, url string) *Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return Collect(ctx, client.New(url, client.WithRetry(0, 0)), url, 30*time.Second)
}

func hasEvent(s *Snapshot, typ events.Type, replica string) bool {
	if s.Events == nil {
		return false
	}
	for _, e := range s.Events.Events {
		if e.Type != typ {
			continue
		}
		if replica == "" || e.Attrs["replica"] == replica {
			return true
		}
	}
	return false
}

func replicaQPS(s *Snapshot, replica string) (float64, bool) {
	for _, r := range s.Replicas {
		if r.Replica == replica {
			return r.QPS, true
		}
	}
	return 0, false
}

// recentRouted sums the router's own last five routed-request deltas for a
// replica; found is false while the router history lacks that series.
func recentRouted(s *Snapshot, replica string) (sum float64, found bool) {
	if s.History == nil {
		return 0, false
	}
	for _, sr := range s.History.Series {
		if sr.Replica != "" || sr.Name != "sickle_shard_routed_requests_total" ||
			sr.Labels["replica"] != replica {
			continue
		}
		found = true
		n := len(sr.Points)
		for _, p := range sr.Points[n-min(n, 5):] {
			sum += p.V
		}
	}
	return sum, found
}

// TestFlightRecorderKillAndReadmit is the core acceptance path: kill a
// replica under load, watch the journal record the ejection and the
// per-replica history record the QPS dip, respawn it, watch the
// re-admission — all through the sickle-top collect library.
func TestFlightRecorderKillAndReadmit(t *testing.T) {
	ckpt := e2eCheckpoint(t)
	ctx := context.Background()

	replicas := []*serve.InProc{
		startReplica(t, "", ckpt, nil),
		startReplica(t, "", ckpt, nil),
	}
	rt, err := shard.NewRouter(shard.Config{
		URLs:            []string{replicas[0].URL, replicas[1].URL},
		ProbeEvery:      25 * time.Millisecond,
		HistoryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	inferLoad(client.New(ts.URL, client.WithRetry(3, 5*time.Millisecond)), stop, &wg)
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()

	// Phase 1: both replicas serving. The scattered history must show
	// per-replica traffic for both.
	var snap *Snapshot
	waitFor(t, "traffic on both replicas", 10*time.Second, func() bool {
		snap = collect(t, ts.URL)
		q0, _ := replicaQPS(snap, "r0")
		q1, _ := replicaQPS(snap, "r1")
		return snap.Health != nil && snap.Health.Status == "ok" && q0 > 0 && q1 > 0
	})
	if snap.Health == nil || snap.Health.Status != "ok" {
		t.Fatalf("health = %+v, want ok", snap.Health)
	}
	for _, id := range []string{"r0", "r1"} {
		qps, ok := replicaQPS(snap, id)
		if !ok || qps <= 0 {
			t.Fatalf("phase 1: replica %s QPS = %v (present=%v), want > 0;"+
				" replicas: %+v", id, qps, ok, snap.Replicas)
		}
	}

	// Phase 2: kill r1 under load. The prober must eject it, the journal
	// must record the ejection, and r1's history must stop flowing.
	addr1 := replicas[1].Addr()
	replicas[1].Kill()
	replicas[1] = nil
	rs := rt.ReplicaSet()
	waitFor(t, "r1 ejection", 5*time.Second, func() bool {
		r, _ := rs.Get("r1")
		return !r.Up()
	})
	// Post-ejection history accrues until r1's recent routed deltas are zero.
	waitFor(t, "post-ejection history", 10*time.Second, func() bool {
		snap = collect(t, ts.URL)
		_, r1Live := replicaQPS(snap, "r1")
		q0, _ := replicaQPS(snap, "r0")
		r1Recent, found := recentRouted(snap, "r1")
		return hasEvent(snap, events.TypeEjection, "r1") && !r1Live && q0 > 0 && found && r1Recent == 0
	})
	if !hasEvent(snap, events.TypeEjection, "r1") {
		t.Fatalf("phase 2: no ejection event for r1 in %+v", snap.Events)
	}
	if _, ok := replicaQPS(snap, "r1"); ok {
		t.Error("phase 2: dead replica still contributes scattered history")
	}
	if qps, ok := replicaQPS(snap, "r0"); !ok || qps <= 0 {
		t.Errorf("phase 2: survivor r0 QPS = %v, want > 0", qps)
	}
	// The router's own per-replica routed counters show r1's dip: its
	// recent deltas must be zero while r0 keeps moving.
	if snap.History == nil {
		t.Fatal("phase 2: no router history")
	}
	r1Recent, found := recentRouted(snap, "r1")
	if !found {
		t.Fatal("phase 2: router history lacks routed counter for r1")
	}
	if r1Recent != 0 {
		t.Errorf("phase 2: r1 still being routed after ejection (recent deltas %v)", r1Recent)
	}

	// Phase 3: respawn at the same address; the prober must re-admit it
	// and the journal must say so.
	replicas[1] = startReplica(t, addr1, ckpt, nil)
	waitFor(t, "r1 re-admission", 5*time.Second, func() bool {
		r, _ := rs.Get("r1")
		return r.Up()
	})
	snap = collect(t, ts.URL)
	if !hasEvent(snap, events.TypeReadmission, "r1") {
		t.Fatalf("phase 3: no readmission event for r1 in %+v", snap.Events)
	}

	// The dashboard renders the whole story without panicking, in both
	// color and plain modes.
	if out := Render(snap, false); out == "" {
		t.Error("Render produced nothing")
	}
	Render(snap, true)
}

// TestFlightRecorderSLOBreachDegradesWithoutEjection induces an
// availability breach on one replica and asserts the contract: its own
// /healthz flips to degraded, the router sees that and deprioritizes it
// in failover order, but does NOT eject it.
func TestFlightRecorderSLOBreachDegradesWithoutEjection(t *testing.T) {
	ckpt := e2eCheckpoint(t)
	ctx := context.Background()

	// Only /v2/infer feeds the objective, so the router's /healthz probes
	// do not dilute the error burst below: its error fraction is 1.0, a
	// burn rate of 100, which breaches at the default windows.
	objectives, err := slo.ParseObjectives([]string{"availability:/v2/infer:99"})
	if err != nil {
		t.Fatal(err)
	}
	replicas := []*serve.InProc{
		startReplica(t, "", ckpt, objectives),
		startReplica(t, "", ckpt, nil),
	}

	rt, err := shard.NewRouter(shard.Config{
		URLs:            []string{replicas[0].URL, replicas[1].URL},
		ProbeEvery:      25 * time.Millisecond,
		HistoryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	defer func() {
		rt.Shutdown(ctx)
		for _, p := range replicas {
			p.Close(ctx)
		}
	}()

	// Error traffic straight at r0: inferring a model that does not
	// exist is a typed failure the availability objective counts.
	bad := client.New(replicas[0].URL, client.WithRetry(0, 0))
	item := api.InferItem{Shape: e2eShape, Data: make([]float64, 12)}
	for i := 0; i < 50; i++ {
		bctx, cancel := context.WithTimeout(ctx, time.Second)
		bad.Infer(bctx, &api.InferRequest{Model: "no-such-model", Items: []api.InferItem{item}})
		cancel()
	}
	waitFor(t, "r0 history to sample the errors", 5*time.Second, func() bool {
		h, err := bad.Health(context.Background())
		return err == nil && h.Status == "degraded"
	})

	// The router's prober must pick the degradation up — and keep the
	// replica on the ring.
	rs := rt.ReplicaSet()
	r0, _ := rs.Get("r0")
	waitFor(t, "router to see r0 degraded", 5*time.Second, func() bool {
		return r0.Degraded()
	})
	if !r0.Up() {
		t.Fatal("degraded replica was ejected; degraded must stay on the ring")
	}

	// Deprioritized: for every key, the failover sequence lists the
	// healthy replica before the degraded one.
	for _, key := range e2eModels {
		seq := rs.Sequence(key, 2)
		if len(seq) != 2 || seq[0].ID != "r1" || seq[1].ID != "r0" {
			ids := []string{}
			for _, r := range seq {
				ids = append(ids, r.ID)
			}
			t.Fatalf("Sequence(%q) = %v, want [r1 r0] (degraded last)", key, ids)
		}
	}

	// Through the console path: the router's health view names r0
	// degraded (and up), and the scattered journal carries the breach
	// and degraded events from r0's own flight recorder.
	snap := collect(t, ts.URL)
	if snap.Health == nil {
		t.Fatal("no health in snapshot")
	}
	var saw bool
	for _, r := range snap.Health.Replicas {
		if r.ID == "r0" {
			saw = true
			if !r.Up || r.Status != "degraded" {
				t.Errorf("router health for r0 = up=%v status=%q, want up degraded", r.Up, r.Status)
			}
		}
	}
	if !saw {
		t.Fatal("router health missing r0")
	}
	if !hasEvent(snap, events.TypeSLOBreach, "r0") {
		t.Errorf("scattered events missing r0's slo_breach: %+v", snap.Events)
	}
	if snap.SLO == nil {
		t.Error("snapshot missing the router's /debug/slo report")
	}
}
