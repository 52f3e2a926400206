// Package events is the operational flight recorder shared by the sickle
// tiers: a bounded in-memory ring of structured events (replica ejection
// and re-admission, routing failover, checkpoint hot-swap, job panics,
// backpressure stalls, SLO breaches) with trace-ID cross-links into
// /debug/traces. The ring is fixed-memory — when full, the oldest events
// are overwritten and a dropped counter (sickle_obs_events_dropped_total)
// makes the eviction visible. GET /debug/events serves the tail as JSON;
// the shard router scatter-gathers every replica's journal into one
// fleet-wide view.
package events

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Type classifies an event. The set is open — tiers may emit their own —
// but these names are the vocabulary the console and tests key on.
type Type string

const (
	TypeFailover    Type = "failover"    // request retried on a non-primary ring node
	TypeEjection    Type = "ejection"    // replica removed from the ring
	TypeReadmission Type = "readmission" // replica re-admitted to the ring
	TypeHotSwap     Type = "hotswap"     // model checkpoint hot-swapped under a live name
	TypeJobPanic    Type = "job_panic"   // a job runner panicked (recovered, typed internal)
	TypeStall       Type = "stall"       // producer stalled on backpressure
	TypeSLOBreach   Type = "slo_breach"  // an objective's burn rate crossed its threshold
	TypeSLORecover  Type = "slo_recover" // a breached objective returned under threshold
	TypeDegraded    Type = "degraded"    // tier health flipped to degraded
	TypeRecovered   Type = "recovered"   // tier health returned to ok
	TypeRecovery    Type = "recovery"    // a job was recovered from the WAL at startup
	TypeDedupHit    Type = "dedup_hit"   // a duplicate submission was served from prior work

	TypeReplicaJoin  Type = "replica_join"  // a replica joined the ring via the admin API
	TypeReplicaDrain Type = "replica_drain" // a replica began bleeding sticky jobs before removal
	TypeReplicaLeave Type = "replica_leave" // a replica was removed from the membership
	TypeRebalance    Type = "rebalance"     // ring membership changed and keyspace ownership moved
)

// Event is one journal entry. Attrs carry event-specific detail (replica
// ID, model name, burn rates); TraceID, when set, links to the
// /debug/traces/{id} view of the request that triggered the event.
type Event struct {
	Seq     uint64            `json:"seq"`
	Time    time.Time         `json:"time"`
	Tier    string            `json:"tier"`
	Type    Type              `json:"type"`
	Msg     string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Journal records events into a bounded ring; when full, the oldest are
// overwritten (counted, never silent). A nil *Journal is a valid no-op
// recorder so instrumentation never branches. Safe for concurrent use.
type Journal struct {
	tier string

	mu   sync.Mutex
	ring *obs.Ring[Event]
	seq  uint64

	now func() time.Time // injectable clock (tests)
}

// DefaultCapacity bounds the ring when the caller does not.
const DefaultCapacity = 1024

// NewJournal builds a journal whose events carry the given tier label.
// capacity <= 0 selects DefaultCapacity.
func NewJournal(tier string, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{tier: tier, ring: obs.NewRing[Event](capacity), now: time.Now}
}

// Emit records one event. kv pairs become Attrs (odd tails are dropped).
func (j *Journal) Emit(typ Type, msg, traceID string, kv ...string) {
	if j == nil {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	e := Event{Time: j.now(), Tier: j.tier, Type: typ, Msg: msg,
		TraceID: traceID, Attrs: attrs}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	j.ring.Push(e)
	j.mu.Unlock()
}

// Dropped reports how many events ring eviction has overwritten (0 on nil).
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Dropped()
}

// Events returns up to limit most recent events (all when limit <= 0),
// oldest first, optionally filtered by type and a since cutoff.
func (j *Journal) Events(limit int, typ Type, since time.Time) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	snap := j.ring.Snapshot()
	j.mu.Unlock()
	out := snap[:0]
	for _, e := range snap {
		if typ != "" && e.Type != typ {
			continue
		}
		if !since.IsZero() && e.Time.Before(since) {
			continue
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Register mounts the eviction counter on reg as
// sickle_obs_events_dropped_total. Nil-safe.
func (j *Journal) Register(reg *obs.Registry) {
	reg.CounterFunc("sickle_obs_events_dropped_total",
		"Events overwritten by journal-ring eviction before they could be read.",
		func() float64 { return float64(j.Dropped()) })
}

// Payload is the /debug/events response body. The shard router returns
// the same shape with every replica's events merged in (each event keeps
// its own tier, and gains a "replica" attr naming its origin).
type Payload struct {
	Tier    string  `json:"tier"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// Query is the parsed /debug/events query string: limit (default 256),
// type (exact event type), since (RFC3339 or a Go duration like "5m"
// meaning that long ago).
type Query struct {
	Limit int
	Type  Type
	Since time.Time
}

// ParseQuery reads a /debug/events query string. A malformed since is
// answered with a 400 here (ok false), as /debug/history answers it — for
// the journal's own handler and for the shard router's fleet-wide merge.
func ParseQuery(w http.ResponseWriter, r *http.Request) (q Query, ok bool) {
	v := r.URL.Query()
	q = Query{Limit: 256, Type: Type(v.Get("type"))}
	if n, err := strconv.Atoi(v.Get("limit")); err == nil && n > 0 {
		q.Limit = n
	}
	var err error
	if q.Since, err = obs.ParseSince(v.Get("since"), time.Now()); err != nil {
		http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
	}
	return q, err == nil
}

// Payload answers one query from this journal alone. Nil-safe.
func (j *Journal) Payload(q Query) Payload {
	p := Payload{Dropped: j.Dropped(), Events: j.Events(q.Limit, q.Type, q.Since)}
	if j != nil {
		p.Tier = j.tier
	}
	if p.Events == nil {
		p.Events = []Event{}
	}
	return p
}

// HandleEvents serves the journal tail (GET /debug/events).
func (j *Journal) HandleEvents(w http.ResponseWriter, r *http.Request) {
	if q, ok := ParseQuery(w, r); ok {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(j.Payload(q))
	}
}

// Merge combines event lists (the router's own plus every replica's) into
// one time-ordered slice, stable across equal timestamps.
func Merge(lists ...[]Event) []Event {
	out := []Event{} // never nil: the payloads built from it encode as [], not null
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	return out
}
