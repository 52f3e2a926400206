package shard

import (
	"context"
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/tier"
	"repro/pkg/api"
	"repro/pkg/client"
)

// maxFailover is how many ring nodes a keyed request tries after its owner.
const maxFailover = 2

// Config sizes the router. Zero values select the documented defaults.
type Config struct {
	Addr        string        // listen address (default :8090)
	URLs        []string      // backend base URLs (required)
	ProbeEvery  time.Duration // health-probe period (default 1s)
	Replication int           // owner-set size K for keyed job submissions (default 1)

	// Logger receives request and lifecycle logs; nil discards them.
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory span ring behind /debug/traces
	// (default obs.DefaultTraceCapacity).
	TraceCapacity int

	// Flight recorder: metrics history, event journal, SLO engine.
	HistoryInterval time.Duration   // tsdb sampling period (default 1s)
	SLOs            []slo.Objective // declared objectives (empty = always ok)
}

// Router fronts a ReplicaSet with the pkg/api HTTP surface on the tier
// chassis it shares with internal/serve, so pkg/client works unchanged
// against it. Keyed requests (infer by model, subsample by dataset,
// registration by name, job submission by dataset) go to the key's ring
// owner with bounded failover; listings, the version handshake and the
// /debug views gather from every replica; job lookups go to the replicas
// the job ID lists (owners.go); membership changes
// through the admin API (admin.go).
type Router struct {
	*tier.Tier
	cfg   Config
	rs    *ReplicaSet
	met   *Metrics
	start time.Time

	// replication is the owner-set size K: a keyed job submission fans out
	// to the K distinct ring successors of its routing key, and a
	// resubmitted key found on any of them is answered from the existing
	// job instead of spawning a duplicate.
	replication int
}

// NewRouter builds a ready-to-listen router. Call Start to launch the
// health prober and Shutdown to stop everything.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8090"
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	t := tier.New(tier.Config{
		Name: "shard", SpanPrefix: "router:", Addr: cfg.Addr, Logger: cfg.Logger,
		TraceCapacity:   cfg.TraceCapacity,
		HistoryInterval: cfg.HistoryInterval, SLOs: cfg.SLOs, SLOMetrics: slo.ShardMetrics,
	})
	met := newMetrics(t.MetricsRegistry())
	t.CountRequests(met.RequestSeries)
	rs, err := NewReplicaSet(SetConfig{
		URLs: cfg.URLs, ProbeEvery: cfg.ProbeEvery, Journal: t.Journal(),
	}, met)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		Tier:        t,
		cfg:         cfg,
		rs:          rs,
		met:         met,
		start:       time.Now(),
		replication: cfg.Replication,
	}
	t.MetricsRegistry().GaugeFunc("sickle_shard_owner_set_size",
		"Members in each key's owner set: the replication factor, bounded by ring size.",
		func() float64 { return float64(len(rt.rs.Sequence("", rt.replication))) })
	rt.routes()
	return rt, nil
}

// ReplicaSet exposes the replica set (tests, healthz embedders).
func (rt *Router) ReplicaSet() *ReplicaSet { return rt.rs }

// Start launches the background health prober and the history sampler.
func (rt *Router) Start() {
	rt.rs.Start()
	rt.History().Start()
}

// Shutdown stops accepting, waits for in-flight handlers, and halts the
// prober. Backends are left running — they are not the router's to stop.
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.Tier.Shutdown(ctx)
	rt.rs.Stop()
	return err
}

// routes fills the chassis route table: internal/serve's v2 surface route
// for route, the membership admin API, and the fleet-wide merges that
// replace the recorder's single-tier /debug views.
func (rt *Router) routes() {
	rt.Handle("/healthz", rt.handleHealthz)
	rt.Handle("GET /api/version", rt.handleVersion)
	rt.Handle("POST /v2/infer", rt.handleInfer)
	rt.Handle("POST /v2/subsample", rt.handleSubsample)
	rt.Handle("GET /v2/models", rt.handleListModels)
	rt.Handle("POST /v2/models", rt.handleRegisterModel)
	rt.Handle("GET /v2/jobs", rt.handleListJobs)
	rt.Handle("POST /v2/jobs", rt.handleSubmitJob)
	rt.Handle("GET /v2/jobs/{id}", rt.handleGetJob)
	rt.Handle("DELETE /v2/jobs/{id}", rt.handleCancelJob)
	rt.Handle("GET /v2/jobs/{id}/result", rt.handleJobResult)
	rt.Handle("GET /v2/keys/{key}", rt.handleGetJobByKey)
	rt.Handle("GET /admin/replicas", rt.handleAdminListReplicas)
	rt.Handle("POST /admin/replicas", rt.handleAdminJoinReplica)
	rt.Handle("DELETE /admin/replicas/{id}", rt.handleAdminDrainReplica)
	rt.Finish(map[string]http.HandlerFunc{
		"GET /debug/traces/{id}": rt.handleDebugTrace,
		"GET /debug/history":     rt.handleDebugHistory,
		"GET /debug/events":      rt.handleDebugEvents,
	})
}

// ---- routing core ----

// route tries fn against each consistent-hash candidate for key in ring
// order: the owner first, then up to maxFailover successors. A replica
// that is overloaded or draining triggers failover to the next candidate;
// one that is unreachable (typed unavailable — also dinging its health)
// fails over only when retryUnavailable is set, because an unreachable
// answer cannot distinguish "never delivered" from "accepted, response
// lost" — safe for idempotent work only. Reads and infer calls qualify
// by nature; job submissions qualify exactly when the client supplied
// an idempotency key, which lets the backend deduplicate a resubmission
// (unkeyed submissions stay at-most-once). Any other answer — success
// or an application-level error — is final and passes through
// unchanged. Every attempt is accounted by observe. Returns the replica
// that answered.
//
// Tracing: one route:<key> span covers the whole candidate walk, with one
// client:<replicaID> child span per attempt; fn receives the attempt's
// context so the downstream call (and the X-Sickle-Trace header pkg/client
// attaches) is parented to its own attempt.
func (rt *Router) route(ctx context.Context, key string, retryUnavailable bool, fn func(context.Context, *Replica) error) (*Replica, error) {
	cands := rt.rs.Sequence(key, 1+maxFailover)
	if len(cands) == 0 {
		return nil, api.Errorf(api.CodeUnavailable, "shard: no replicas configured")
	}
	ctx, routeSpan := rt.Tracer().StartSpan(ctx, "route:"+key)
	defer routeSpan.End()
	var lastErr error
	for i, r := range cands {
		if i > 0 {
			rt.met.failovers.Inc()
			rt.Journal().Emit(events.TypeFailover, "request failed over to a non-primary ring node",
				routeSpan.TraceID(), "key", key, "replica", r.ID, "attempt", strconv.Itoa(i))
		}
		attemptCtx, attempt := rt.Tracer().StartSpan(ctx, "client:"+r.ID)
		attempt.SetAttr("url", r.URL)
		if i > 0 {
			attempt.SetAttr("failover", strconv.Itoa(i))
		}
		err := fn(attemptCtx, r)
		if err != nil {
			attempt.SetAttr("error", string(api.AsError(err).Code))
		}
		attempt.End()
		rt.observe(r, err)
		if err == nil {
			routeSpan.SetAttr("replica", r.ID)
			rt.met.ObserveRouted(r.ID)
			return r, nil
		}
		lastErr = err
		switch api.AsError(err).Code {
		case api.CodeUnavailable:
			if !retryUnavailable {
				return r, err
			}
		case api.CodeOverloaded, api.CodeShuttingDown:
			// Busy or draining, not dead: try the next ring node. Nothing
			// was admitted, so this is safe even for submissions.
		default:
			// A real application answer (bad request, model_not_found, the
			// client hanging up): final.
			return r, err
		}
	}
	return nil, lastErr
}

// observe is the one account of a downstream answer: the replica's health
// (ReplicaSet.Observe) and, for a refusal — unavailable, overloaded or
// shutting down — sickle_shard_failed_requests_total.
func (rt *Router) observe(rep *Replica, err error) {
	rt.rs.Observe(rep, err)
	if err == nil {
		return
	}
	switch api.AsError(err).Code {
	case api.CodeUnavailable, api.CodeOverloaded, api.CodeShuttingDown:
		rt.met.ObserveFailed(rep.ID)
	}
}

// routed is the keyed pass-through handler. It reads the body once and
// parses no more of it than into, sized to the routing key; forwards the
// same bytes and Content-Type to each of the key's ring candidates (failing
// over on unavailable — infer and subsample are reads, and a duplicate
// registration hot-swaps to identical weights); and relays the answer's
// bytes and Content-Type verbatim. Forward has the answer whole before the
// first byte goes out, so a replica dying mid-answer is still failed over.
func (rt *Router) routed(w http.ResponseWriter, r *http.Request, into any, key func() string) error {
	ex := client.NewExchange()
	defer ex.Release()
	ex.ContentType = r.Header.Get("Content-Type")
	err := tier.ReadBody(r, &ex.Request)
	if err == nil {
		err = api.Unmarshal(ex.ContentType, ex.Request.Bytes(), into)
	}
	if err != nil {
		return tier.WriteError(w, err)
	}
	_, err = rt.route(r.Context(), key(), true, func(ctx context.Context, rep *Replica) error {
		return rep.C.Forward(ctx, r.Method, r.URL.Path, ex)
	})
	if err != nil {
		return tier.WriteError(w, err)
	}
	w.Header().Set("Content-Type", ex.AnswerType)
	w.Header().Set("Content-Length", strconv.Itoa(ex.Answer.Len()))
	w.WriteHeader(ex.Status)
	_, err = w.Write(ex.Answer.Bytes())
	return err
}

// inferKey is all of an api.InferRequest the router parses, from JSON or
// off the front of a tensor frame.
type inferKey struct {
	Model string `json:"model"`
}

func (k *inferKey) UnmarshalBinary(b []byte) (err error) {
	k.Model, err = api.InferModel(b)
	return err
}

func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) error {
	var q inferKey
	return rt.routed(w, r, &q, func() string { return q.Model })
}

func (rt *Router) handleSubsample(w http.ResponseWriter, r *http.Request) error {
	var q api.SubsampleRequest
	return rt.routed(w, r, &q, func() string { return subsampleKey(&q) })
}

// registerKey is all of an api.RegisterModelRequest the router parses.
type registerKey struct {
	Name string `json:"name"`
}

func (rt *Router) handleRegisterModel(w http.ResponseWriter, r *http.Request) error {
	var q registerKey
	return rt.routed(w, r, &q, func() string { return q.Name })
}

// subsampleKey picks the routing key that keeps a dataset's LRU entry hot
// on one replica: the shard path when set, else the dataset name.
func subsampleKey(req *api.SubsampleRequest) string {
	if req.Shard != "" {
		return req.Shard
	}
	return req.Dataset
}

// ---- fan-out and gather (every fleet-wide call) ----

// answer is one replica's reply to a fanned-out call.
type answer[T any] struct {
	rep *Replica
	val T
	err error
}

// fanOut calls call(ctx, i) for every reps[i] but skip, concurrently, and
// returns the answers in reps order once all are in, each accounted by
// observe. skip gets no call: its answer holds only the replica.
func fanOut[T any](ctx context.Context, rt *Router, reps []*Replica, skip *Replica,
	call func(context.Context, int) (T, error)) []answer[T] {
	out := make([]answer[T], len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		out[i].rep = rep
		if rep == skip {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].val, out[i].err = call(ctx, i)
		}()
	}
	wg.Wait()
	for _, a := range out {
		if a.rep != skip {
			rt.observe(a.rep, a.err)
		}
	}
	return out
}

// gather fans call out to every live replica but skip (to every member
// when none is up) and returns the answers that succeeded, in replica
// order, so merged views are deterministic.
func gather[T any](ctx context.Context, rt *Router, skip *Replica, call func(context.Context, *Replica) (T, error)) []answer[T] {
	reps := rt.rs.liveOrAll()
	answers := fanOut(ctx, rt, reps, skip, func(ctx context.Context, i int) (T, error) {
		return call(ctx, reps[i])
	})
	return slices.DeleteFunc(answers, func(a answer[T]) bool { return a.rep == skip || a.err != nil })
}

// errNoAnswer is the typed failure of a gather nobody answered.
func errNoAnswer(what string) error {
	return api.Errorf(api.CodeUnavailable, "shard: no replica answered %s", what)
}

// catalog gathers the fleet's model listings (skipping one replica, if
// given) into the newest version of each model, and reports how many
// replicas answered.
func (rt *Router) catalog(ctx context.Context, skip *Replica) (map[string]api.ModelInfo, int) {
	lists := gather(ctx, rt, skip, func(ctx context.Context, rep *Replica) ([]api.ModelInfo, error) {
		return rep.C.Models(ctx)
	})
	newest := map[string]api.ModelInfo{}
	for _, l := range lists {
		for _, m := range l.val {
			if have, dup := newest[m.Name]; !dup || m.Version > have.Version {
				newest[m.Name] = m
			}
		}
	}
	return newest, len(lists)
}

func (rt *Router) handleListModels(w http.ResponseWriter, r *http.Request) error {
	newest, answered := rt.catalog(r.Context(), nil)
	if answered == 0 {
		return tier.WriteError(w, errNoAnswer("GET /v2/models"))
	}
	out := make([]api.ModelInfo, 0, len(newest))
	for _, name := range slices.Sorted(maps.Keys(newest)) {
		out = append(out, newest[name])
	}
	return tier.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleVersion(w http.ResponseWriter, r *http.Request) error {
	infos := gather(r.Context(), rt, nil, func(ctx context.Context, rep *Replica) (*api.VersionInfo, error) {
		return rep.C.ServerVersions(ctx)
	})
	if len(infos) == 0 {
		return tier.WriteError(w, errNoAnswer("GET /api/version"))
	}
	// Intersect: a version is served only if every answering replica
	// speaks it (order kept from the first replica's answer, oldest first).
	common := slices.Clone(infos[0].val.Versions)
	for _, info := range infos[1:] {
		common = slices.DeleteFunc(common, func(v string) bool {
			return !slices.Contains(info.val.Versions, v)
		})
	}
	out := api.VersionInfo{Versions: common}
	if len(common) > 0 {
		out.Latest = common[len(common)-1]
	}
	return tier.WriteJSON(w, http.StatusOK, out)
}

// handleHealthz aggregates the prober's latest view: the router itself
// always answers 200 (it is alive); Status says whether any backend is.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	h := api.Health{
		Status:        "down",
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Models:        []string{},
		Replication:   rt.replication,
	}
	modelSet := map[string]struct{}{}
	for _, s := range rt.rs.Snapshot() {
		rh := api.ReplicaHealth{ID: s.ID, URL: s.URL, Up: s.Up, Draining: s.Draining,
			Status: s.Health.Status, ConsecutiveFailures: s.ConsecFails}
		if s.LastErr != nil {
			rh.Error = s.LastErr.Error()
		}
		h.Replicas = append(h.Replicas, rh)
		if !s.Up {
			continue
		}
		h.Status = "ok"
		h.QueueDepth += s.Health.QueueDepth
		for _, m := range s.Health.Models {
			modelSet[m] = struct{}{}
		}
		for state, n := range s.Health.Jobs {
			if h.Jobs == nil {
				h.Jobs = map[string]int{}
			}
			h.Jobs[state] += n
		}
	}
	h.Models = append(h.Models, slices.Sorted(maps.Keys(modelSet))...)
	// The router's own SLOs can degrade an otherwise-ok fleet view; a
	// fully down fleet stays "down" (worse than degraded).
	if h.Status == "ok" && rt.SLO().Status() == "degraded" {
		h.Status = "degraded"
	}
	return tier.WriteJSON(w, http.StatusOK, h)
}

// ---- fleet-wide /debug views ----

// gatherDebug fetches one raw /debug payload from every live replica and
// decodes it as P. The merge is best-effort and bounded by a short
// timeout: a replica that does not know the trace, answers an error or
// sends JSON that does not parse is left out rather than failing the
// view — only transport-level unavailability counts against its health.
func gatherDebug[P any](rt *Router, r *http.Request,
	fetch func(*client.Client, context.Context, string) ([]byte, error), arg string) []answer[*P] {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	answers := gather(ctx, rt, nil, func(ctx context.Context, rep *Replica) (*P, error) {
		raw, err := fetch(rep.C, ctx, arg)
		if err != nil {
			if api.AsError(err).Code == api.CodeUnavailable {
				return nil, err
			}
			return nil, nil
		}
		p := new(P)
		if json.Unmarshal(raw, p) != nil {
			return nil, nil
		}
		return p, nil
	})
	return slices.DeleteFunc(answers, func(a answer[*P]) bool { return a.val == nil })
}

// handleDebugTrace merges the router's own spans for one trace with the
// spans every live replica recorded for it, yielding the end-to-end view
// (router, client attempts, replica server/queue/execute) in one payload.
func (rt *Router) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := rt.Tracer().Spans(id)
	for _, p := range gatherDebug[obs.TracePayload](rt, r, (*client.Client).DebugTraceJSON, id) {
		spans = append(spans, p.val.Spans...)
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	if len(spans) == 0 {
		tier.WriteError(w, api.Errorf(api.CodeNotFound, "shard: no trace %q", id))
		return
	}
	tier.WriteJSON(w, http.StatusOK, obs.TracePayload{TraceID: id, Spans: spans})
}

// handleDebugHistory merges every live replica's /debug/history into one
// fleet-wide payload: the router's own series first, then each replica's
// series tagged with its replica ID. The incoming query string (series
// globs, since) is forwarded verbatim to the replicas.
func (rt *Router) handleDebugHistory(w http.ResponseWriter, r *http.Request) {
	patterns, since, ok := tsdb.ParseQuery(w, r)
	if !ok {
		return
	}
	out := rt.History().Payload(patterns, since)
	for _, p := range gatherDebug[tsdb.Payload](rt, r, (*client.Client).DebugHistoryJSON, r.URL.RawQuery) {
		for _, s := range p.val.Series {
			s.Replica = p.rep.ID
			out.Series = append(out.Series, s)
		}
	}
	tier.WriteJSON(w, http.StatusOK, out)
}

// handleDebugEvents merges every live replica's event journal with the
// router's own into one time-ordered payload; each replica event gains a
// "replica" attr naming its origin. The query string (limit, type, since)
// is forwarded verbatim.
func (rt *Router) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q, ok := events.ParseQuery(w, r)
	if !ok {
		return
	}
	out := rt.Journal().Payload(q)
	lists := [][]events.Event{out.Events}
	for _, p := range gatherDebug[events.Payload](rt, r, (*client.Client).DebugEventsJSON, r.URL.RawQuery) {
		for i := range p.val.Events {
			if p.val.Events[i].Attrs == nil {
				p.val.Events[i].Attrs = map[string]string{}
			}
			p.val.Events[i].Attrs["replica"] = p.rep.ID
		}
		lists = append(lists, p.val.Events)
		out.Dropped += p.val.Dropped
	}
	out.Events = events.Merge(lists...)
	if len(out.Events) > q.Limit {
		out.Events = out.Events[len(out.Events)-q.Limit:]
	}
	tier.WriteJSON(w, http.StatusOK, out)
}
