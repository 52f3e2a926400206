// Package serve turns SICKLE-Go's offline pipeline into an online service:
// a versioned HTTP JSON API (the pkg/api wire contract) over the trained
// surrogates (micro-batched inference on pooled model replicas), the
// subsampling pipeline (datasets and .skl shards resolved through a
// bounded LRU cache), and an asynchronous job manager for long-running
// subsample/train work, with health and Prometheus-style metrics
// endpoints. Cancellation is context-first end to end: every request and
// job carries a context.Context that reaches the batcher queues, replica
// acquisition, the cache, and the sampling/training loops.
//
// Beside each cached dataset sits a sampling.Memo of MaxEnt's
// seed-independent work on it (cube strengths, per-cube clusterings),
// bounded by the dataset's own bytes and evicted with it: a repeat
// subsample request that differs only in seed or budget only draws.
// Offline runs keep no memo, so what the paper's figures price is
// unchanged.
//
// With Config.DataDir set the job manager is durable (internal/durable):
// submissions are fsync'd to a write-ahead log before acknowledgment and
// recovered on restart, results persist on disk, client idempotency keys
// deduplicate retried submissions, and identical subsample jobs are
// served byte-identically from a content-addressed cache.
//
// The HTTP scaffolding — flight recorder, route table with typed 405/404
// fallbacks, request middleware, listen/serve/shutdown — is the
// internal/tier chassis shared with internal/shard. cmd/sickle-serve is
// the binary; the e2e tests here drive it in-process through pkg/client,
// .github/smoke.sh serve drives the binary itself.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs/events"
	"repro/internal/obs/slo"
	"repro/internal/tensor"
	"repro/internal/tier"
	"repro/internal/train"
	"repro/pkg/api"
)

// DefaultReplicas is the model-replica count of a registration that names
// none.
const DefaultReplicas = 2

// Config sizes the service. Zero values select the documented defaults.
// Two async jobs run at once and terminal jobs are kept for 15 minutes.
type Config struct {
	Addr         string // listen address (default :8080)
	MaxBatch     int    // micro-batch cap (default 16)
	Workers      int    // batches running at once (default GOMAXPROCS)
	QueueCap     int    // per-model queue bound before 429s (default 1024)
	CacheEntries int    // LRU capacity for datasets/shards (default 8)
	MaxJobs      int    // live-job admission bound (default 64)

	// DataDir, when set, makes jobs durable: submissions are fsync'd to
	// a write-ahead log under this directory before they are
	// acknowledged, results persist on disk, identical subsample jobs
	// are served from a content-addressed cache, and a restart on the
	// same directory recovers job state (re-enqueuing interrupted
	// jobs). Empty keeps the pre-durability in-memory behavior.
	DataDir string

	// Logger receives request and lifecycle logs; nil discards them.
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory span ring behind /debug/traces
	// (default obs.DefaultTraceCapacity).
	TraceCapacity int

	// Flight recorder: metrics history, event journal, SLO engine.
	HistoryInterval time.Duration   // tsdb sampling period (default 1s)
	SLOs            []slo.Objective // declared objectives (empty = always ok)
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8
	}
}

// Server wires the registry, batcher, cache, job manager and metrics
// behind the tier chassis.
type Server struct {
	*tier.Tier
	cfg      Config
	reg      *Registry
	batcher  *Batcher
	cache    *LRU
	jobs     *JobManager
	met      *Metrics
	durable  *durable.Store // nil without Config.DataDir
	start    time.Time
	draining atomic.Bool

	// testProgressHook, when set (tests only), is invoked from inside the
	// sampling pipeline's per-cube progress callback during subsample jobs
	// — the coordination point for deterministic mid-job cancellation.
	testProgressHook func(done, total int)
}

// NewServer builds a ready-to-listen server. With Config.DataDir set it
// opens (creating if needed) the durability store there and replays the
// write-ahead job log — the only error path; an unusable data dir must
// refuse to start rather than silently serve without durability.
func NewServer(cfg Config) (*Server, error) {
	cfg.defaults()
	t := tier.New(tier.Config{
		Name: "serve", SpanPrefix: "server:", Addr: cfg.Addr, Logger: cfg.Logger,
		TraceCapacity:   cfg.TraceCapacity,
		HistoryInterval: cfg.HistoryInterval, SLOs: cfg.SLOs, SLOMetrics: slo.ServeMetrics,
	})
	met := newMetrics(t.MetricsRegistry())
	t.CountRequests(met.RequestSeries)
	reg := NewRegistry()
	s := &Server{
		Tier:    t,
		cfg:     cfg,
		reg:     reg,
		batcher: NewBatcher(reg, met, cfg.MaxBatch, cfg.Workers, cfg.QueueCap),
		cache:   NewLRU(cfg.CacheEntries),
		jobs:    NewJobManager(defaultJobWorkers, cfg.MaxJobs, defaultJobTTL),
		met:     met,
		start:   time.Now(),
	}
	met.bindJobStats(s.jobs.Stats)
	met.bindCache(s.cache)
	s.batcher.SetTracer(s.Tracer())
	s.jobs.SetTracer(s.Tracer())
	s.jobs.SetPanicHook(func(id string, typ api.JobType, traceID, msg string) {
		s.Journal().Emit(events.TypeJobPanic, "job panicked (recovered)", traceID,
			"job", id, "type", string(typ), "panic", msg)
	})
	if cfg.DataDir != "" {
		st, records, err := durable.Open(cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("serve: open data dir %s: %w", cfg.DataDir, err)
		}
		s.durable = st
		st.Register(t.MetricsRegistry())
		if cp := os.Getenv(durable.CrashPointEnv); cp != "" {
			s.Logger().Warn("wal crash point armed; appends from that stage on are dropped", "point", cp)
		}
		s.jobs.SetDurable(st, func(err error) {
			s.Logger().Error("wal append failed; next submission will be refused",
				"err", err.Error())
		})
		s.recoverJobs(records)
	}
	s.routes()
	s.History().Start()
	return s, nil
}

// recoverJobs replays the folded WAL records into the job manager:
// terminal jobs within the retention TTL come back queryable exactly as
// their terminal record was written (a succeeded record whose result is
// missing or does not decode is re-run instead, since the WAL promised a
// result it cannot produce), interrupted pending/running jobs are
// re-enqueued from their persisted submission payload, and expired jobs
// are dropped. Retained jobs are re-appended to the fresh WAL, which
// Seal then atomically compacts over the old one.
func (s *Server) recoverJobs(records []durable.JobRecord) {
	wal := s.durable.WAL
	type restore struct {
		job    api.Job
		run    JobRunner
		result *api.JobResult
		action string
	}
	var restores []restore
	for _, rec := range records {
		job := rec.Job
		if job.State.Terminal() && time.Since(job.FinishedAt) > defaultJobTTL {
			wal.CountRecovered("dropped")
			continue
		}
		wal.Append(durable.SubmitRecord(job, rec.Payload))
		var result *api.JobResult
		if job.State == api.JobSucceeded && (json.Unmarshal(rec.Result, &result) != nil || result == nil) {
			// Succeeded without a usable result: run it again.
			job.State, job.FinishedAt = api.JobPending, time.Time{}
		}
		if job.State.Terminal() {
			wal.Append(durable.TerminalRecord(job, rec.Result))
			restores = append(restores, restore{job: job, result: result, action: "restored"})
			continue
		}
		var req api.SubmitJobRequest
		runner := JobRunner(nil)
		if json.Unmarshal(rec.Payload, &req) == nil {
			runner, _ = s.runnerFor(&req)
		}
		if runner == nil {
			// Interrupted and unrecoverable: mark it failed so the client
			// gets a truthful terminal answer instead of a vanished job.
			job.State = api.JobFailed
			job.Error = api.Errorf(api.CodeInternal,
				"serve: job %s interrupted by restart; submission payload unrecoverable", job.ID)
			job.FinishedAt = time.Now()
			wal.Append(durable.TerminalRecord(job, nil))
			restores = append(restores, restore{job: job, action: "interrupted"})
			continue
		}
		restores = append(restores, restore{job: job, run: runner, action: "reenqueued"})
	}
	// Seal first so the runners the restores spawn append to a log whose
	// every record is individually fsync'd.
	if err := s.durable.Seal(); err != nil {
		s.Logger().Error("wal compaction failed", "err", err.Error())
	}
	for _, r := range restores {
		s.jobs.Restore(r.job, r.run, r.result)
		wal.CountRecovered(r.action)
		s.Journal().Emit(events.TypeRecovery, "job recovered from WAL", "",
			"job", r.job.ID, "action", r.action, "state", string(r.job.State))
	}
	if n := len(records); n > 0 {
		s.Logger().Info("wal replayed", "jobs", n, "restored", len(restores))
	}
}

// runnerFor builds the runner a submission (live or recovered) asks for.
func (s *Server) runnerFor(req *api.SubmitJobRequest) (JobRunner, error) {
	switch req.Type {
	case api.JobSubsample:
		if req.Subsample == nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "subsample job needs a subsample payload")
		}
		return s.subsampleJobRunner(*req.Subsample), nil
	case api.JobTrain:
		if req.Train == nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "train job needs a train payload")
		}
		return s.trainJobRunner(*req.Train), nil
	default:
		return nil, api.Errorf(api.CodeInvalidArgument,
			"unknown job type %q (want %q or %q)", req.Type, api.JobSubsample, api.JobTrain)
	}
}

// Registry exposes the model registry for pre-registering models.
func (s *Server) Registry() *Registry { return s.reg }

// Jobs exposes the job manager (the tier tests of this and the shard
// package park and list jobs through it).
func (s *Server) Jobs() *JobManager { return s.jobs }

// routes fills the chassis route table with the v2 surface.
func (s *Server) routes() {
	s.Handle("/healthz", s.handleHealthz)
	s.Handle("GET /api/version", s.handleVersion)
	s.Handle("POST /v2/infer", tier.Call(s.doInfer))
	s.Handle("POST /v2/subsample", tier.Call(func(ctx context.Context, req *api.SubsampleRequest) (*api.SubsampleResponse, error) {
		return s.doSubsample(ctx, req, nil)
	}))
	s.Handle("GET /v2/models", s.handleListModels)
	s.Handle("POST /v2/models", tier.Call(func(_ context.Context, req *api.RegisterModelRequest) (api.ModelInfo, error) {
		return s.doRegisterModel(req)
	}))
	s.Handle("GET /v2/jobs", s.handleListJobs)
	s.Handle("POST /v2/jobs", s.handleSubmitJob)
	s.Handle("GET /v2/jobs/{id}", s.handleGetJob)
	s.Handle("DELETE /v2/jobs/{id}", s.handleCancelJob)
	s.Handle("GET /v2/jobs/{id}/result", s.handleJobResult)
	s.Handle("GET /v2/keys/{key}", s.handleGetJobByKey)
	s.Finish(nil)
}

// Shutdown drains gracefully: new batcher admissions fail fast with the
// typed shutting_down error, the HTTP server stops accepting and waits for
// in-flight handlers (each bounded by its own request context), running
// jobs are canceled (their state becomes canceled/shutting_down), and
// finally the batcher is torn down — a request admitted before Shutdown
// always gets either its real response or a typed shutting_down error,
// never a hang.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.Tier.Shutdown(ctx)
	if cerr := s.teardown(); err == nil {
		err = cerr
	}
	return err
}

// teardown stops what lives behind the HTTP front: running jobs are
// canceled, the batcher drained, the durability store closed.
func (s *Server) teardown() error {
	s.jobs.Close()
	s.batcher.Stop()
	return s.durable.Close()
}

// ---- shared core ----

func specToArch(s api.ModelSpec) train.ArchSpec {
	return train.ArchSpec{Arch: s.Arch, InDim: s.InDim, Hidden: s.Hidden,
		Heads: s.Heads, OutDim: s.OutDim, Edge: s.Edge}
}

func archToSpec(a train.ArchSpec) api.ModelSpec {
	return api.ModelSpec{Arch: a.Arch, InDim: a.InDim, Hidden: a.Hidden,
		Heads: a.Heads, OutDim: a.OutDim, Edge: a.Edge}
}

func entryToInfo(e *ModelEntry) api.ModelInfo {
	return api.ModelInfo{Name: e.Name, Version: e.Version, Spec: archToSpec(e.Spec),
		Checkpoint: e.Checkpoint, InputShape: e.InputShape, Replicas: e.Replicas}
}

// doInfer validates, fans the items into the batcher under the request
// context, and gathers per-item outputs in order.
func (s *Server) doInfer(ctx context.Context, req *api.InferRequest) (*api.InferResponse, error) {
	if req.Model == "" || len(req.Items) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "need model and at least one item")
	}
	if _, ok := s.reg.Lookup(req.Model); !ok {
		return nil, api.Errorf(api.CodeModelNotFound, "unknown model %q", req.Model)
	}
	inputs := make([]*tensor.Tensor, len(req.Items))
	for i, it := range req.Items {
		n := 1
		for _, d := range it.Shape {
			if d <= 0 {
				return nil, api.Errorf(api.CodeInvalidArgument, "item %d: bad shape %v", i, it.Shape)
			}
			n *= d
		}
		if len(it.Shape) == 0 || n != len(it.Data) {
			return nil, api.Errorf(api.CodeInvalidArgument,
				"item %d: shape %v wants %d values, got %d", i, it.Shape, n, len(it.Data))
		}
		inputs[i] = tensor.FromSlice(it.Data, it.Shape...)
	}
	// The call is admitted at once, every item its own queue entry so
	// items from concurrent clients can share micro-batches. An item
	// refused at admission ends the admission; the answer is the
	// lowest-numbered item's failure.
	pending, refused := s.batcher.admitAll(ctx, req.Model, inputs)
	resp := &api.InferResponse{
		Model:      req.Model,
		Outputs:    make([]api.InferItem, 0, len(inputs)),
		BatchSizes: make([]int, 0, len(inputs)),
	}
	for i := range pending {
		res := pending[i].wait()
		if res.err != nil {
			return nil, itemError(i, res.err)
		}
		resp.Version = res.version
		resp.Outputs = append(resp.Outputs, api.InferItem{Shape: res.output.Shape, Data: res.output.Data})
		resp.BatchSizes = append(resp.BatchSizes, res.batchSize)
	}
	if refused != nil {
		return nil, itemError(len(pending), refused)
	}
	return resp, nil
}

// itemError names the failing item of a multi-item call, keeping the
// failure's code and retry hint.
func itemError(i int, err error) error {
	ae := api.AsError(err)
	return api.Errorf(ae.Code, "item %d: %s", i, ae.Message).WithRetryAfter(ae.RetryAfterSeconds)
}

func (s *Server) doRegisterModel(req *api.RegisterModelRequest) (api.ModelInfo, error) {
	replicas := req.Replicas
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	e, err := s.reg.Register(req.Name, specToArch(req.Spec), req.Checkpoint, req.InputShape, replicas)
	if err != nil {
		return api.ModelInfo{}, api.Errorf(api.CodeInvalidArgument, "%s", err.Error())
	}
	if e.Version > 1 {
		s.Journal().Emit(events.TypeHotSwap, "model checkpoint hot-swapped", "",
			"model", e.Name, "version", fmt.Sprint(e.Version),
			"checkpoint", e.Checkpoint)
	}
	return entryToInfo(e), nil
}

func (s *Server) listModels() []api.ModelInfo {
	entries := s.reg.List()
	out := make([]api.ModelInfo, len(entries))
	for i, e := range entries {
		out[i] = entryToInfo(e)
	}
	return out
}

// ---- handlers (typed envelope) ----

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) error {
	return tier.WriteJSON(w, http.StatusOK, api.VersionInfo{
		Versions: api.SupportedVersions(), Latest: api.Latest,
	})
}

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) error {
	return tier.WriteJSON(w, http.StatusOK, s.listModels())
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		return tier.WriteError(w, errShuttingDown())
	}
	var req api.SubmitJobRequest
	if err := tier.DecodeBody(r, &req); err != nil {
		return tier.WriteError(w, err)
	}
	runner, err := s.runnerFor(&req)
	if err != nil {
		return tier.WriteError(w, err)
	}
	opts := SubmitOptions{Key: req.IdempotencyKey}
	if s.durable != nil {
		if b, merr := json.Marshal(&req); merr == nil {
			opts.Payload = b
		}
	}
	job, dup, err := s.jobs.Submit(r.Context(), req.Type, runner, opts)
	if err != nil {
		return tier.WriteError(w, err)
	}
	if dup {
		// A keyed resubmission deduplicated onto its original job: 200
		// (nothing new was created) with the original snapshot.
		tc, _ := api.TraceFrom(r.Context())
		s.Journal().Emit(events.TypeDedupHit, "idempotent resubmission returned original job",
			tc.TraceID, "job", job.ID, "kind", "idempotency_key")
		return tier.WriteJSON(w, http.StatusOK, job)
	}
	return tier.WriteJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) error {
	return tier.WriteJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) error {
	job, err := s.jobs.Get(r.PathValue("id"))
	return tier.Reply(w, job, err)
}

// handleGetJobByKey answers "do you hold idempotency key X?" — the
// owner-set consultation a shard router runs before admitting a keyed
// resubmission, so a key claimed anywhere in a key's owner set maps to
// exactly one fleet-wide job.
func (s *Server) handleGetJobByKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return tier.WriteError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	job, err := s.jobs.GetByKey(key)
	return tier.Reply(w, job, err)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	return tier.Reply(w, job, err)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	res, err := s.jobs.Result(r.PathValue("id"))
	return tier.Reply(w, res, err)
}

// ---- shared plain endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	models := []string{}
	for _, e := range s.reg.List() {
		models = append(models, fmt.Sprintf("%s@v%d", e.Name, e.Version))
	}
	return tier.WriteJSON(w, http.StatusOK, api.Health{
		Status:        s.SLO().Status(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        models,
		QueueDepth:    s.batcher.QueueDepth(),
		Jobs:          s.jobs.Stats(),
	})
}
