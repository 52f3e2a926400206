package shard

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/events"
	"repro/pkg/api"
	"repro/pkg/client"
)

// Replica is one serve backend fronted by the router: a stable ID (its
// ring identity), the base URL, and a pkg/client transport with SDK-side
// retry disabled — the router's failover loop is the retry policy.
type Replica struct {
	ID  string
	URL string
	C   *client.Client

	mu          sync.Mutex
	up          bool
	draining    bool
	consecFails int
	lastHealth  api.Health
	lastErr     error
}

// Up reports the replica's current liveness (a draining replica is still
// up — it keeps serving sticky reads while it bleeds).
func (r *Replica) Up() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up
}

// Degraded reports whether the replica's last health answer declared it
// degraded (SLO burn-rate rules firing). Degraded replicas stay on the
// ring but are deprioritized in failover order — breaching an SLO means
// "slow or erroring", not "dead", and ejecting it would shift its whole
// load onto the remaining replicas mid-incident.
func (r *Replica) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up && r.lastHealth.Status == "degraded"
}

// ReplicaStatus is one replica's state snapshot (healthz, tests).
type ReplicaStatus struct {
	ID          string
	URL         string
	Up          bool
	Draining    bool
	ConsecFails int
	LastErr     error
	Health      api.Health // last successful /healthz body
}

// SetConfig sizes a ReplicaSet. Zero values select the documented
// defaults.
type SetConfig struct {
	URLs       []string      // backend base URLs (required; more can join later)
	ProbeEvery time.Duration // health-probe period (default 1s)
	FailAfter  int           // consecutive failures before ejection (default 2)

	// Journal receives ejection/re-admission events; nil discards them.
	Journal *events.Journal
}

// ReplicaSet owns the router's replica list, the consistent-hash ring over
// the live subset, and the health prober that ejects unreachable backends
// and re-admits them when /healthz answers again. Membership is dynamic:
// AddReplica/Admit bring a newcomer in (off-ring until admitted, so a cold
// cache never takes traffic), SetDraining takes one off both rings while
// its sticky jobs bleed, and RemoveReplica retires it — into the former
// map, so job IDs minted while it was a member keep resolving for reads.
type ReplicaSet struct {
	mu       sync.RWMutex // guards membership (replicas/byID/former/nextID) and both rings
	replicas []*Replica
	byID     map[string]*Replica
	former   map[string]*Replica // removed members, kept resolvable for sticky reads
	nextID   int                 // monotonic — IDs are never reused, or old sticky IDs would misroute
	ring     *Ring
	fullRing *Ring // every admitted member regardless of health — the last-resort order when everything is ejected

	probeEvery   time.Duration
	probeTimeout time.Duration
	failAfter    int
	met          *Metrics
	journal      *events.Journal

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewReplicaSet builds the set with every seed replica initially admitted;
// the first probe round corrects optimism about backends that are already
// down. Seed replica IDs are r0, r1, ... in URL order; later joiners
// continue the sequence and never reuse a retired ID.
func NewReplicaSet(cfg SetConfig, met *Metrics) (*ReplicaSet, error) {
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("shard: replica set needs at least one backend URL")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	probeTimeout := cfg.ProbeEvery
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	rs := &ReplicaSet{
		byID:         map[string]*Replica{},
		former:       map[string]*Replica{},
		ring:         NewRing(),
		fullRing:     NewRing(),
		probeEvery:   cfg.ProbeEvery,
		probeTimeout: probeTimeout,
		failAfter:    cfg.FailAfter,
		met:          met,
		journal:      cfg.Journal,
		stop:         make(chan struct{}),
	}
	for i, url := range cfg.URLs {
		url = strings.TrimRight(strings.TrimSpace(url), "/")
		if url == "" {
			return nil, fmt.Errorf("shard: empty replica URL at position %d", i)
		}
		r := rs.newReplica(fmt.Sprintf("r%d", i), url)
		r.up = true
		rs.replicas = append(rs.replicas, r)
		rs.byID[r.ID] = r
		rs.ring.Add(r.ID)
		rs.fullRing.Add(r.ID)
		met.SetUp(r.ID, true)
	}
	rs.nextID = len(cfg.URLs)
	return rs, nil
}

// newReplica builds the replica value and its transport. Each replica gets
// its own transport: sharing http.DefaultTransport's global keep-alive pool
// would let a stale pooled connection to a died-and-respawned backend — or
// another process that reused its port — poison calls, and per-backend
// pools keep one slow replica from starving the others' idle-connection
// budget.
func (rs *ReplicaSet) newReplica(id, url string) *Replica {
	hc := &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}}
	return &Replica{
		ID:  id,
		URL: url,
		C:   client.New(url, client.WithRetry(0, 0), client.WithHTTPClient(hc)),
	}
}

// Start launches the background health prober (probe immediately, then
// every ProbeEvery).
func (rs *ReplicaSet) Start() {
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		rs.ProbeAll()
		t := time.NewTicker(rs.probeEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rs.ProbeAll()
			case <-rs.stop:
				return
			}
		}
	}()
}

// Stop halts the prober. Safe to call more than once.
func (rs *ReplicaSet) Stop() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	rs.wg.Wait()
}

// ProbeAll probes every member's /healthz concurrently and applies the
// ejection/re-admission rules. Called by the prober loop; exported so
// tests can force a deterministic round.
func (rs *ReplicaSet) ProbeAll() {
	var wg sync.WaitGroup
	for _, r := range rs.Replicas() {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			// Probes are owned by the prober loop, not a request; the
			// timeout is their only deadline.
			//sicklevet:ignore ctxfirst background health probe, bounded by probeTimeout
			ctx, cancel := context.WithTimeout(context.Background(), rs.probeTimeout)
			defer cancel()
			h, err := r.C.Health(ctx)
			if err != nil {
				rs.NoteFailure(r, err)
				return
			}
			rs.noteUp(r, h)
		}(r)
	}
	wg.Wait()
}

// NoteOK records a successful routed call: the replica is demonstrably
// alive, so its failure streak resets and, if it had been ejected, it
// rejoins the ring without waiting for the next probe.
func (rs *ReplicaSet) NoteOK(r *Replica) { rs.noteUp(r, nil) }

// noteUp and NoteFailure hold rs.mu around both the up-flag decision and
// the ring mutation (with r.mu nested for the replica fields): deciding
// under one lock and mutating the ring under another would let a racing
// success/failure pair strand a healthy replica off the ring (or a dead
// one on it) permanently. Lock order is always rs.mu → r.mu.
func (rs *ReplicaSet) noteUp(r *Replica, h *api.Health) {
	rs.mu.Lock()
	r.mu.Lock()
	wasUp := r.up
	r.up = true
	r.consecFails = 0
	r.lastErr = nil
	if h != nil {
		r.lastHealth = *h
	}
	// Only current, non-draining members may (re)join the ring: a probe or
	// sticky read succeeding against a draining or already-removed replica
	// must not put it back in the keyed-traffic rotation.
	member := rs.byID[r.ID] == r && !r.draining
	r.mu.Unlock()
	if !wasUp && member {
		rs.ring.Add(r.ID)
	}
	rs.mu.Unlock()
	if !wasUp && member {
		rs.met.readmissions.Inc()
		rs.met.SetUp(r.ID, true)
		rs.journal.Emit(events.TypeReadmission, "replica re-admitted to the ring", "",
			"replica", r.ID, "url", r.URL)
	}
}

// NoteFailure records a failed probe or routed call; failAfter consecutive
// failures eject the replica from the ring until a probe (or routed call)
// succeeds again.
func (rs *ReplicaSet) NoteFailure(r *Replica, err error) {
	rs.mu.Lock()
	r.mu.Lock()
	r.consecFails++
	r.lastErr = err
	eject := r.up && r.consecFails >= rs.failAfter
	if eject {
		r.up = false
	}
	r.mu.Unlock()
	if eject {
		rs.ring.Remove(r.ID)
	}
	rs.mu.Unlock()
	if eject {
		rs.met.ejections.Inc()
		rs.met.SetUp(r.ID, false)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		rs.journal.Emit(events.TypeEjection, "replica ejected from the ring", "",
			"replica", r.ID, "url", r.URL, "error", msg)
	}
}

// ---- dynamic membership ----

// AddReplica creates a pending member for url: in the membership list (so
// the prober and healthz see it) but off both rings and marked down, so it
// takes no traffic until Admit. Fails on a URL already fronted by a
// current member.
func (rs *ReplicaSet) AddReplica(url string) (*Replica, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return nil, fmt.Errorf("shard: empty replica URL")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.replicas {
		if r.URL == url {
			return nil, fmt.Errorf("shard: replica %s already fronts %s", r.ID, url)
		}
	}
	r := rs.newReplica(fmt.Sprintf("r%d", rs.nextID), url)
	rs.nextID++
	rs.replicas = append(rs.replicas, r)
	rs.byID[r.ID] = r
	rs.met.SetUp(r.ID, false)
	return r, nil
}

// Admit puts a pending replica on both rings and marks it up — call only
// after it has passed a health check and been warm-prefetched. A replica
// that was removed or set draining in the meantime is left alone.
func (rs *ReplicaSet) Admit(r *Replica) bool {
	rs.mu.Lock()
	r.mu.Lock()
	ok := rs.byID[r.ID] == r && !r.draining
	if ok {
		r.up = true
		r.consecFails = 0
		r.lastErr = nil
	}
	r.mu.Unlock()
	if ok {
		rs.ring.Add(r.ID)
		rs.fullRing.Add(r.ID)
	}
	rs.mu.Unlock()
	if ok {
		rs.met.SetUp(r.ID, true)
	}
	return ok
}

// SetDraining takes a member off both rings (no new keyed traffic, not
// even as a last resort) while keeping it in the membership, up, and
// resolvable — sticky job reads and the bleed-out keep working.
func (rs *ReplicaSet) SetDraining(id string) (*Replica, bool) {
	rs.mu.Lock()
	r, ok := rs.byID[id]
	if ok {
		r.mu.Lock()
		r.draining = true
		r.mu.Unlock()
		rs.ring.Remove(id)
		rs.fullRing.Remove(id)
	}
	rs.mu.Unlock()
	return r, ok
}

// RemoveReplica retires a member: off both rings, out of the membership
// list, into the former map — where job IDs minted while it was a member
// keep resolving, so clients can still fetch results of jobs that lived
// on it. The backend process is left running.
func (rs *ReplicaSet) RemoveReplica(id string) (*Replica, bool) {
	rs.mu.Lock()
	r, ok := rs.byID[id]
	if ok {
		delete(rs.byID, id)
		for i, cur := range rs.replicas {
			if cur == r {
				rs.replicas = append(rs.replicas[:i], rs.replicas[i+1:]...)
				break
			}
		}
		rs.former[id] = r
		rs.ring.Remove(id)
		rs.fullRing.Remove(id)
	}
	rs.mu.Unlock()
	if ok {
		rs.met.SetUp(id, false)
	}
	return r, ok
}

// Replicas returns a snapshot of the current membership in join order.
func (rs *ReplicaSet) Replicas() []*Replica {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return append([]*Replica(nil), rs.replicas...)
}

// Live returns the members currently up, in join order (draining members
// included — they are alive, just off the rings).
func (rs *ReplicaSet) Live() []*Replica {
	out := make([]*Replica, 0, 4)
	for _, r := range rs.Replicas() {
		if r.Up() {
			out = append(out, r)
		}
	}
	return out
}

// Get resolves a replica by ID — current members first, then retired ones
// (whose sticky job IDs must keep resolving for reads).
func (rs *ReplicaSet) Get(id string) (*Replica, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if r, ok := rs.byID[id]; ok {
		return r, true
	}
	r, ok := rs.former[id]
	return r, ok
}

// RingMembers reports how many replicas are on the live ring.
func (rs *ReplicaSet) RingMembers() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.ring.Len()
}

// Owner returns the live replica owning key.
func (rs *ReplicaSet) Owner(key string) (*Replica, bool) {
	seq := rs.Sequence(key, 1)
	if len(seq) == 0 {
		return nil, false
	}
	return seq[0], true
}

// Sequence returns up to n distinct replicas in consistent-hash order for
// key: the owner first, then the failover candidates. When every replica
// has been ejected it falls back to the full admitted set in hash order —
// a last-resort attempt beats refusing outright, and one success
// re-admits. Replicas reporting themselves degraded (SLO breach) are
// stably moved behind the healthy candidates: still reachable, tried last.
func (rs *ReplicaSet) Sequence(key string, n int) []*Replica {
	rs.mu.RLock()
	ids := rs.ring.Sequence(key, n)
	if len(ids) == 0 {
		ids = rs.fullRing.Sequence(key, n)
	}
	reps := make([]*Replica, 0, len(ids))
	for _, id := range ids {
		if r, ok := rs.byID[id]; ok {
			reps = append(reps, r)
		}
	}
	rs.mu.RUnlock()
	out := make([]*Replica, 0, len(reps))
	var degraded []*Replica
	for _, r := range reps {
		if r.Degraded() {
			degraded = append(degraded, r)
		} else {
			out = append(out, r)
		}
	}
	return append(out, degraded...)
}

// Snapshot returns every current member's state, in join order.
func (rs *ReplicaSet) Snapshot() []ReplicaStatus {
	reps := rs.Replicas()
	out := make([]ReplicaStatus, 0, len(reps))
	for _, r := range reps {
		r.mu.Lock()
		out = append(out, ReplicaStatus{
			ID: r.ID, URL: r.URL, Up: r.up, Draining: r.draining,
			ConsecFails: r.consecFails, LastErr: r.lastErr, Health: r.lastHealth,
		})
		r.mu.Unlock()
	}
	return out
}
