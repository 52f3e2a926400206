package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/pkg/api"
	"repro/pkg/client"
)

// RingMembers reports how many replicas are on the ring.
func (rs *ReplicaSet) RingMembers() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.ring.Len()
}

// FailedTotal returns the failed-request counter for one replica.
func (m *Metrics) FailedTotal(replica string) int64 {
	return int64(m.failed.With(replica).Value())
}

// healthyBackend answers every request with an ok /healthz body.
func healthyBackend(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardPendingReplicaTakesNoTraffic: a joining replica the prober
// finds healthy before Admit stays off the ring — its warm prefetch runs
// before it takes keyed traffic — and Admit alone puts it on.
func TestShardPendingReplicaTakesNoTraffic(t *testing.T) {
	rs, err := NewReplicaSet(SetConfig{URLs: []string{healthyBackend(t)}}, newMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	newcomer, err := rs.AddReplica(healthyBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	rs.ProbeAll()
	if !newcomer.Up() {
		t.Fatal("the probe round did not reach the newcomer")
	}
	if got := rs.RingMembers(); got != 1 {
		t.Fatalf("ring members after a probe of the pending replica = %d, want 1", got)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
		if slices.Contains(rs.Sequence(keys[i], 2), newcomer) {
			t.Fatalf("Sequence(%q) offers the pending replica %s", keys[i], newcomer.ID)
		}
	}
	if !rs.Admit(newcomer) || rs.RingMembers() != 2 {
		t.Fatalf("Admit left %d ring members, want 2", rs.RingMembers())
	}
	if !slices.ContainsFunc(keys, func(k string) bool { owner, _ := rs.Owner(k); return owner == newcomer }) {
		t.Fatal("the admitted replica owns none of 64 keys")
	}
}

// TestShardKeyLookupDuringOutage: while the only replica that may hold a
// key is unreachable, GET /v2/keys/{key} answers typed unavailable —
// before its ejection and after — not job_not_found, and every refusal
// is counted as a failed request.
func TestShardKeyLookupDuringOutage(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	ctx := context.Background()
	p := startReplica(t, "", ckpt)
	rt := newTestRouter(t, []string{p.URL})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))

	sub := api.SubsampleRequest{Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}
	req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &sub, IdempotencyKey: "k-outage"}
	if _, err := c.SubmitJob(ctx, &req); err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	if _, err := c.JobByKey(ctx, "k-absent"); err == nil || api.AsError(err).Code != api.CodeJobNotFound {
		t.Fatalf("lookup of an unknown key with the fleet up = %v, want job_not_found", err)
	}
	p.Kill()
	for i := range 3 { // the first failure, the ejecting one, and one after
		if _, err := c.JobByKey(ctx, "k-outage"); err == nil || api.AsError(err).Code != api.CodeUnavailable {
			t.Fatalf("lookup %d with the holder down = %v, want typed unavailable", i, err)
		}
	}
	if got := rt.Metrics().FailedTotal("r0"); got != 3 {
		t.Fatalf("failed requests counted on r0 = %d, want 3", got)
	}
}

// TestReplicaSetMembershipWalks drives random walks of join, admit,
// drain, remove, probe-fail, probe-ok and degraded over at most six
// replicas. After every step Sequence must equal a brute-force filter of
// a fresh Ring over the active members (up and healthy, then up and
// degraded, else all of them, in ring order), offer no pending, draining
// or retired replica, and Get must resolve every ID ever minted;
// ejections and re-admissions are counted for active members only.
func TestReplicaSetMembershipWalks(t *testing.T) {
	type model struct {
		state        state
		up, degraded bool
		consecFails  int
	}
	for walk := range 64 {
		rng := rand.New(rand.NewSource(int64(walk)))
		var urls []string
		for i := range 1 + rng.Intn(3) {
			urls = append(urls, fmt.Sprintf("http://walk-%d.invalid", i))
		}
		met := newMetrics(obs.NewRegistry())
		rs, err := NewReplicaSet(SetConfig{URLs: urls}, met)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		m := map[string]*model{}
		for i := range urls {
			id := "r" + strconv.Itoa(i)
			ids = append(ids, id)
			m[id] = &model{state: active, up: true}
		}
		var ejections, readmissions int
		for step := range 40 {
			id := ids[rng.Intn(len(ids))]
			r, _ := rs.Get(id)
			mr := m[id]
			op := []string{"join", "admit", "drain", "remove", "probe-fail", "probe-ok", "degraded"}[rng.Intn(7)]
			switch op {
			case "join":
				if len(rs.Replicas()) >= 6 {
					continue
				}
				nr, err := rs.AddReplica(fmt.Sprintf("http://walk-%d.invalid", len(ids)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, nr.ID)
				m[nr.ID] = &model{state: pending}
			case "admit":
				want := mr.state <= active
				if got := rs.Admit(r); got != want {
					t.Fatalf("walk %d step %d: Admit(%s in state %d) = %v", walk, step, id, mr.state, got)
				}
				if want {
					mr.state, mr.up, mr.consecFails = active, true, 0
				}
			case "drain", "remove":
				set, to := rs.SetDraining, draining
				if op == "remove" {
					set, to = rs.RemoveReplica, retired
				}
				want := mr.state != retired
				if _, got := set(id); got != want {
					t.Fatalf("walk %d step %d: %s(%s in state %d) = %v", walk, step, op, id, mr.state, got)
				}
				if want {
					mr.state = to
				}
			case "probe-fail":
				rs.NoteFailure(r, errors.New("probe refused"))
				mr.consecFails++
				if mr.up && mr.consecFails >= failAfter {
					mr.up = false
					if mr.state == active {
						ejections++
					}
				}
			case "probe-ok", "degraded":
				h := api.Health{Status: "ok"}
				if op == "degraded" {
					h.Status = "degraded"
				}
				rs.noteUp(r, &h)
				if !mr.up && mr.state == active {
					readmissions++
				}
				mr.up, mr.degraded, mr.consecFails = true, op == "degraded", 0
			}

			var activeIDs []string
			ring := NewRing()
			for _, id := range ids {
				if m[id].state == active {
					ring.Add(id)
					activeIDs = append(activeIDs, id)
				}
				if r, ok := rs.Get(id); !ok || r.ID != id {
					t.Fatalf("walk %d step %d: Get(%s) = %v, %v", walk, step, id, r, ok)
				}
			}
			if got := rs.RingMembers(); got != len(activeIDs) {
				t.Fatalf("walk %d step %d: %d ring members, want %d", walk, step, got, len(activeIDs))
			}
			for k := range 6 {
				key := "key-" + strconv.Itoa(k)
				all := ring.Sequence(key, ring.Len())
				var healthy, degraded []string
				for _, id := range all {
					switch mr := m[id]; {
					case mr.up && mr.degraded:
						degraded = append(degraded, id)
					case mr.up:
						healthy = append(healthy, id)
					}
				}
				offer := append(healthy, degraded...)
				if len(offer) == 0 {
					offer = all
				}
				for n := 1; n <= len(activeIDs)+1; n++ {
					want := offer[:min(n, len(offer))]
					var got []string
					for _, r := range rs.Sequence(key, n) {
						if m[r.ID].state != active {
							t.Fatalf("walk %d step %d: Sequence offers %s in state %d", walk, step, r.ID, m[r.ID].state)
						}
						got = append(got, r.ID)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("walk %d step %d (%s %s): Sequence(%q, %d) = %v, want %v",
							walk, step, op, id, key, n, got, want)
					}
				}
			}
			if got := int(met.ejections.Value()); got != ejections {
				t.Fatalf("walk %d step %d: %d ejections counted, want %d", walk, step, got, ejections)
			}
			if got := int(met.readmissions.Value()); got != readmissions {
				t.Fatalf("walk %d step %d: %d re-admissions counted, want %d", walk, step, got, readmissions)
			}
		}
	}
}

// TestReplicaSetHealthRacesMembership runs health flips, membership
// changes and ring walks at once (for -race): health never edits the
// ring, so once they stop the ring holds exactly the active members and
// Sequence offers only them.
func TestReplicaSetHealthRacesMembership(t *testing.T) {
	rs, err := NewReplicaSet(SetConfig{URLs: []string{"http://race-0.invalid", "http://race-1.invalid"}},
		newMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	run := func(seed int64, step func(*rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range 300 {
				step(rng)
			}
		}()
	}
	pick := func(rng *rand.Rand) *Replica {
		reps := rs.Replicas()
		if len(reps) == 0 {
			return nil
		}
		return reps[rng.Intn(len(reps))]
	}
	run(1, func(rng *rand.Rand) {
		if r := pick(rng); r != nil && rng.Intn(2) == 0 {
			rs.Observe(r, api.Errorf(api.CodeUnavailable, "probe refused"))
		} else if r != nil {
			rs.Observe(r, nil)
		}
	})
	run(2, func(rng *rand.Rand) {
		switch r := pick(rng); {
		case r == nil || len(rs.Replicas()) < 4:
			if r, err := rs.AddReplica(fmt.Sprintf("http://race-%d.invalid", rng.Int())); err == nil && rng.Intn(2) == 0 {
				rs.Admit(r)
			}
		case rng.Intn(2) == 0:
			rs.SetDraining(r.ID)
		default:
			rs.RemoveReplica(r.ID)
		}
	})
	run(3, func(rng *rand.Rand) { rs.Sequence("key-"+strconv.Itoa(rng.Intn(16)), 3) })
	wg.Wait()

	activeN := 0
	for _, r := range rs.Replicas() {
		if r.state == active {
			activeN++
		}
	}
	if got := rs.RingMembers(); got != activeN {
		t.Fatalf("%d ring members, %d active", got, activeN)
	}
	for k := range 16 {
		for _, r := range rs.Sequence("key-"+strconv.Itoa(k), 6) {
			if r.state != active {
				t.Fatalf("Sequence offers %s in state %d", r.ID, r.state)
			}
		}
	}
}
