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
	tr  *http.Transport // C's own connection pool; Stop closes what it holds idle

	mu          sync.Mutex
	state       state // written under the set's mu and r.mu both, so either lock reads it
	up          bool
	consecFails int
	lastHealth  api.Health
	lastErr     error
}

// state is a replica's place in the membership lifecycle, which only moves
// forward: pending → active → draining → retired (a pending replica may
// skip straight to draining or retired). Only active members are on the
// ring; health never moves a replica between states.
type state uint8

const (
	pending  state = iota // added, not yet admitted: takes no keyed traffic
	active                // admitted: on the ring
	draining              // leaving: off the ring, still serving its sticky jobs
	retired               // removed: kept only so the job IDs it minted resolve
)

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

// failAfter is how many consecutive failed probes or routed calls eject a
// replica.
const failAfter = 2

// SetConfig sizes a ReplicaSet. Zero values select the documented
// defaults.
type SetConfig struct {
	URLs       []string      // backend base URLs (required; more can join later)
	ProbeEvery time.Duration // health-probe period (default 1s)

	// Journal receives ejection/re-admission events; nil discards them.
	Journal *events.Journal
}

// ReplicaSet owns the router's replicas, the consistent-hash ring over the
// active ones, and the health prober that marks unreachable backends down
// and up again when /healthz answers. The ring changes only with
// membership: AddReplica brings a newcomer in pending (off the ring, so a
// cold cache never takes traffic), Admit makes it active, SetDraining
// takes it off the ring while its sticky jobs bleed, and RemoveReplica
// retires it. Health is a flag Sequence reads when it walks the ring.
type ReplicaSet struct {
	mu       sync.RWMutex        // guards replicas, byID, ring and every replica's state writes
	replicas []*Replica          // every replica ever added, in join order
	byID     map[string]*Replica // the same, by ID: the job IDs a retired replica minted keep resolving
	ring     *Ring               // the active members, whatever their health

	probeEvery   time.Duration
	probeTimeout time.Duration
	met          *Metrics
	journal      *events.Journal

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewReplicaSet builds the set with every seed replica added and admitted;
// the first probe round corrects optimism about backends that are already
// down. Seed replica IDs are r0, r1, ... in URL order; later joiners
// continue the sequence and never reuse a retired ID. A URL given twice is
// refused, as a second join of it is.
func NewReplicaSet(cfg SetConfig, met *Metrics) (*ReplicaSet, error) {
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("shard: replica set needs at least one backend URL")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	probeTimeout := cfg.ProbeEvery
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	rs := &ReplicaSet{
		byID:         map[string]*Replica{},
		ring:         NewRing(),
		probeEvery:   cfg.ProbeEvery,
		probeTimeout: probeTimeout,
		met:          met,
		journal:      cfg.Journal,
		stop:         make(chan struct{}),
	}
	for _, url := range cfg.URLs {
		r, err := rs.AddReplica(url)
		if err != nil {
			return nil, err
		}
		rs.Admit(r)
	}
	return rs, nil
}

// newReplica builds the replica value and its transport. Each replica gets
// its own transport: sharing http.DefaultTransport's global keep-alive pool
// would let a stale pooled connection to a died-and-respawned backend — or
// another process that reused its port — poison calls, and per-backend
// pools keep one slow replica from starving the others' idle-connection
// budget.
func (rs *ReplicaSet) newReplica(id, url string) *Replica {
	tr := &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Replica{
		ID:  id,
		URL: url,
		C:   client.New(url, client.WithRetry(0, 0), client.WithHTTPClient(&http.Client{Transport: tr})),
		tr:  tr,
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

// Stop halts the prober and closes every replica's pooled connections, so
// a backend's graceful shutdown does not wait on one the router keeps
// idle. Safe to call more than once.
func (rs *ReplicaSet) Stop() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	rs.wg.Wait()
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	for _, r := range rs.replicas {
		r.tr.CloseIdleConnections()
	}
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

// Observe is the health account of one downstream answer: a success
// proves the replica up, a typed unavailable counts toward its ejection,
// and any other answer says nothing about its health.
func (rs *ReplicaSet) Observe(r *Replica, err error) {
	switch {
	case err == nil:
		rs.noteUp(r, nil)
	case api.AsError(err).Code == api.CodeUnavailable:
		rs.NoteFailure(r, err)
	}
}

// noteUp records a successful probe or call: the failure streak resets and
// the replica is up. Only an active member's return is a re-admission.
func (rs *ReplicaSet) noteUp(r *Replica, h *api.Health) {
	r.mu.Lock()
	readmitted := !r.up && r.state == active
	r.up = true
	r.consecFails = 0
	r.lastErr = nil
	if h != nil {
		r.lastHealth = *h
	}
	r.mu.Unlock()
	if readmitted {
		rs.met.readmissions.Inc()
		rs.met.SetUp(r.ID, true)
		rs.journal.Emit(events.TypeReadmission, "replica re-admitted to the ring", "",
			"replica", r.ID, "url", r.URL)
	}
}

// NoteFailure records a failed probe or routed call; failAfter consecutive
// failures mark the replica down until a probe (or routed call) succeeds
// again. Only an active member's fall is an ejection.
func (rs *ReplicaSet) NoteFailure(r *Replica, err error) {
	r.mu.Lock()
	r.consecFails++
	r.lastErr = err
	eject := r.up && r.consecFails >= failAfter
	if eject {
		r.up = false
	}
	eject = eject && r.state == active
	r.mu.Unlock()
	if eject {
		rs.met.ejections.Inc()
		rs.met.SetUp(r.ID, false)
		rs.journal.Emit(events.TypeEjection, "replica ejected from the ring", "",
			"replica", r.ID, "url", r.URL, "error", err.Error())
	}
}

// ---- dynamic membership ----

// AddReplica creates a pending member for url: in the membership (so the
// prober and healthz see it) but off the ring and marked down, so it takes
// no traffic until Admit. Fails on a URL already fronted by a member that
// is not retired.
func (rs *ReplicaSet) AddReplica(url string) (*Replica, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return nil, fmt.Errorf("shard: empty replica URL")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.replicas {
		if r.URL == url && r.state != retired {
			return nil, fmt.Errorf("shard: replica %s already fronts %s", r.ID, url)
		}
	}
	r := rs.newReplica(fmt.Sprintf("r%d", len(rs.replicas)), url)
	rs.replicas = append(rs.replicas, r)
	rs.byID[r.ID] = r
	rs.met.SetUp(r.ID, false)
	return r, nil
}

// Admit makes a pending replica active — on the ring and up. Call it only
// after the replica has passed a health check and been warm-prefetched. A
// replica set draining or removed in the meantime is left alone.
func (rs *ReplicaSet) Admit(r *Replica) bool { return rs.advance(r, active) }

// SetDraining takes a member off the ring (no new keyed traffic, not even
// as a last resort) while keeping it in the membership, up, and
// resolvable — sticky job reads and the bleed-out keep working.
func (rs *ReplicaSet) SetDraining(id string) (*Replica, bool) {
	r, ok := rs.Get(id)
	return r, ok && rs.advance(r, draining)
}

// RemoveReplica retires a member: off the ring and out of the membership,
// while job IDs minted while it was a member keep resolving through Get,
// so clients can still fetch results of jobs that lived on it. The backend
// process is left running.
func (rs *ReplicaSet) RemoveReplica(id string) (*Replica, bool) {
	r, ok := rs.Get(id)
	return r, ok && rs.advance(r, retired)
}

// advance moves r forward to state to (staying put is allowed, leaving
// retired is not) and keeps the ring to exactly the active members.
// Admission also marks the replica up with a clean streak.
func (rs *ReplicaSet) advance(r *Replica, to state) bool {
	rs.mu.Lock()
	r.mu.Lock()
	ok := r.state <= to && r.state != retired
	if ok {
		r.state = to
		if to == active {
			r.up, r.consecFails, r.lastErr = true, 0, nil
		}
	}
	r.mu.Unlock()
	switch {
	case ok && to == active:
		rs.ring.Add(r.ID)
	case ok:
		rs.ring.Remove(r.ID)
	}
	rs.mu.Unlock()
	if ok && to != draining {
		rs.met.SetUp(r.ID, to == active)
	}
	return ok
}

// Replicas returns a snapshot of the membership — every replica not
// retired — in join order.
func (rs *ReplicaSet) Replicas() []*Replica {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]*Replica, 0, len(rs.replicas))
	for _, r := range rs.replicas {
		if r.state != retired {
			out = append(out, r)
		}
	}
	return out
}

// liveOrAll returns the members currently up, in join order (pending and
// draining members included — they are alive, just off the ring), or
// every member when none is up: a last-resort attempt beats refusing
// outright, and one success marks its replica up again.
func (rs *ReplicaSet) liveOrAll() []*Replica {
	all := rs.Replicas()
	live := make([]*Replica, 0, len(all))
	for _, r := range all {
		if r.Up() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return all
	}
	return live
}

// Get resolves a replica by ID, retired ones included (whose sticky job
// IDs must keep resolving for reads).
func (rs *ReplicaSet) Get(id string) (*Replica, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	r, ok := rs.byID[id]
	return r, ok
}

// Owner returns the replica owning key: the first Sequence offers.
func (rs *ReplicaSet) Owner(key string) (*Replica, bool) {
	seq := rs.Sequence(key, 1)
	if len(seq) == 0 {
		return nil, false
	}
	return seq[0], true
}

// Sequence returns up to n distinct active members in consistent-hash
// order for key: the first n of the up, healthy members in ring order,
// then the up but degraded ones (SLO breach: still reachable, tried
// last). When no member is up it returns the members in ring order — a
// last-resort attempt beats refusing outright, and one success marks its
// replica up again. Filtering the one ring's walk keeps its order, so a
// key moves only when its owner's health or the membership changes.
func (rs *ReplicaSet) Sequence(key string, n int) []*Replica {
	rs.mu.RLock()
	ids := rs.ring.Sequence(key, rs.ring.Len())
	walk := make([]*Replica, len(ids))
	for i, id := range ids {
		walk[i] = rs.byID[id]
	}
	rs.mu.RUnlock()
	// Filter in place: out never grows past the element range reads, so
	// walk stays whole until the first up member is written.
	var buf [8]*Replica
	degraded, out := buf[:0], walk[:0]
	for _, r := range walk {
		switch {
		case r.Degraded():
			degraded = append(degraded, r)
		case r.Up():
			out = append(out, r)
		}
	}
	if out = append(out, degraded...); len(out) == 0 {
		out = walk
	}
	return out[:min(n, len(out))]
}

// Snapshot returns every member's state, in join order.
func (rs *ReplicaSet) Snapshot() []ReplicaStatus {
	reps := rs.Replicas()
	out := make([]ReplicaStatus, 0, len(reps))
	for _, r := range reps {
		r.mu.Lock()
		out = append(out, ReplicaStatus{
			ID: r.ID, URL: r.URL, Up: r.up, Draining: r.state == draining,
			ConsecFails: r.consecFails, LastErr: r.lastErr, Health: r.lastHealth,
		})
		r.mu.Unlock()
	}
	return out
}
