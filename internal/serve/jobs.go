package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/pkg/api"
)

// JobRunner executes one job's work. It must honor ctx (the job manager
// cancels it on DELETE /v2/jobs/{id} and on server shutdown) and may call
// progress at any cadence; progress is cheap and safe from any goroutine.
type JobRunner func(ctx context.Context, progress func(stage string, done, total int)) (*api.JobResult, error)

// JobManager owns the server's asynchronous work: submissions enter a
// bounded admission set, at most `workers` jobs run concurrently (each
// under its own cancellable context), and terminal jobs linger for `ttl`
// so clients can fetch status/results before the record expires — at most
// 4×maxJobs of them, the oldest finished going first.
type JobManager struct {
	mu    sync.Mutex
	jobs  map[string]*jobEntry
	byKey map[string]string // idempotency key -> job ID, for dedup on retry
	seq   int

	// active counts the non-terminal jobs, the ones admission limits;
	// finished holds the terminal ones in FinishedAt order, oldest first,
	// so retention pops from its front.
	active   int
	finished []*jobEntry

	// wal persists job state, results included, across restarts; nil
	// runs in-memory (the pre-durability behavior). walErr observes
	// non-fatal append failures on lifecycle records — the submit record
	// is the one that fails the submission itself.
	wal    *durable.Log
	walErr func(err error)

	sem     chan struct{}
	ttl     time.Duration
	maxJobs int

	root   context.Context
	cancel context.CancelFunc
	closed bool
	wg     sync.WaitGroup

	// tracer records one job:<type> span per finished job; nil disables.
	tracer *obs.Tracer

	// panicHook observes recovered runner panics (the server journals them
	// as job_panic events); nil disables.
	panicHook func(id string, typ api.JobType, traceID, msg string)

	now func() time.Time // injectable clock (tests)
}

type jobEntry struct {
	status api.Job
	cancel context.CancelFunc
	result *api.JobResult
	run    JobRunner
	done   chan struct{} // closed when the job reaches a terminal state
	tc     api.TraceContext
}

// Job-manager defaults; a Server runs with the first two, and
// Config.MaxJobs overrides the third.
const (
	defaultJobWorkers = 2
	defaultJobTTL     = 15 * time.Minute
	defaultMaxJobs    = 64
)

// NewJobManager builds a manager running at most workers jobs at once,
// admitting at most maxJobs live (non-expired) jobs, and retaining
// terminal jobs for ttl.
func NewJobManager(workers, maxJobs int, ttl time.Duration) *JobManager {
	if workers <= 0 {
		workers = defaultJobWorkers
	}
	if maxJobs <= 0 {
		maxJobs = defaultMaxJobs
	}
	if ttl <= 0 {
		ttl = defaultJobTTL
	}
	// The manager is a lifecycle root: jobs outlive the submitting
	// request and are canceled by Close, not by any caller context.
	//sicklevet:ignore ctxfirst lifecycle root, canceled by Close
	ctx, cancel := context.WithCancel(context.Background())
	return &JobManager{
		jobs:    map[string]*jobEntry{},
		byKey:   map[string]string{},
		sem:     make(chan struct{}, workers),
		ttl:     ttl,
		maxJobs: maxJobs,
		root:    ctx,
		cancel:  cancel,
		now:     time.Now,
	}
}

// SetTracer installs the span recorder for job lifecycles. Call before
// serving traffic (not synchronized with in-flight jobs).
func (jm *JobManager) SetTracer(t *obs.Tracer) { jm.tracer = t }

// SetPanicHook installs an observer for recovered job panics. Call before
// serving traffic (not synchronized with in-flight jobs).
func (jm *JobManager) SetPanicHook(h func(id string, typ api.JobType, traceID, msg string)) {
	jm.panicHook = h
}

// SetDurable attaches the write-ahead log. onErr (may be nil) observes
// append failures on start/terminal records — those jobs still finish in
// memory; the WAL latches failed so the *next* submission is refused
// with a typed unavailable error. Call before serving traffic.
func (jm *JobManager) SetDurable(st *durable.Store, onErr func(error)) {
	if st == nil {
		return
	}
	jm.wal = st.WAL
	jm.walErr = onErr
}

// reportWALErr forwards a non-fatal durability error to the hook.
func (jm *JobManager) reportWALErr(err error) {
	if jm.walErr != nil && err != nil {
		jm.walErr(err)
	}
}

// SubmitOptions carries the durability-facing parts of a submission.
type SubmitOptions struct {
	// Key is the client's idempotency key; a resubmission with the same
	// key returns the original job instead of admitting a duplicate.
	Key string
	// Payload is the serialized SubmitJobRequest, written to the WAL so
	// recovery can rebuild the runner after a restart.
	Payload json.RawMessage
}

// Submit admits a job and returns its initial (pending) snapshot. A full
// admission set rejects with api.CodeOverloaded; a closed manager with
// api.CodeShuttingDown. The job's lifecycle span joins the trace ctx
// carries (and the job context carries it, so work the runner does
// downstream is parented correctly); its cancellation lifetime is the
// manager's root — a submitting HTTP request ending must not cancel its
// job. The returned bool reports a dedup hit (the job is a prior
// submission with the same opts.Key). When a WAL is attached the submit
// record is appended — and fsync'd — before the job is admitted; an append
// failure (disk gone, fsync refused) rejects the submission with a typed
// api.CodeUnavailable error rather than accepting work that would silently
// vanish in a crash.
func (jm *JobManager) Submit(ctx context.Context, typ api.JobType, run JobRunner, opts SubmitOptions) (api.Job, bool, error) {
	tc, _ := api.TraceFrom(ctx)
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return api.Job{}, false, errShuttingDown()
	}
	jm.purgeLocked()
	if opts.Key != "" {
		if id, ok := jm.byKey[opts.Key]; ok {
			if j, ok := jm.jobs[id]; ok {
				return j.status, true, nil
			}
			delete(jm.byKey, opts.Key) // job expired; key is free again
		}
	}
	// Only live (non-terminal) jobs count against admission: retained
	// finished jobs are history, not load, and counting them would turn
	// maxJobs into a hard rate limit of maxJobs-per-TTL on an idle server.
	if jm.active >= jm.maxJobs {
		return api.Job{}, false, api.Errorf(api.CodeOverloaded,
			"serve: job queue full (%d active jobs)", jm.active).WithRetryAfter(5)
	}
	jm.seq++
	status := api.Job{
		ID: fmt.Sprintf("job-%d", jm.seq), Type: typ, State: api.JobPending,
		CreatedAt: jm.now(), IdempotencyKey: opts.Key,
	}
	if jm.wal != nil {
		if err := jm.wal.Append(durable.SubmitRecord(status, opts.Payload)); err != nil {
			return api.Job{}, false, err
		}
	}
	jobCtx, cancel := context.WithCancel(jm.root)
	if tc.TraceID != "" {
		jobCtx = api.WithTrace(jobCtx, tc)
	}
	j := &jobEntry{status: status, cancel: cancel, run: run, done: make(chan struct{}), tc: tc}
	jm.jobs[status.ID] = j
	if opts.Key != "" {
		jm.byKey[opts.Key] = status.ID
	}
	jm.active++
	jm.wg.Add(1)
	go jm.execute(jobCtx, j)
	return j.status, false, nil
}

// Restore re-admits one job recovered from the WAL; call before serving
// traffic. Terminal jobs come back queryable with their (possibly nil)
// result; non-terminal ones are re-enqueued from scratch — the job ran
// zero or a partial number of times before the crash, and runners are
// deterministic pipelines, so running again is the correct resume. The
// ID sequence is bumped past recovered IDs so new jobs never collide.
func (jm *JobManager) Restore(job api.Job, run JobRunner, result *api.JobResult) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if s, ok := strings.CutPrefix(job.ID, "job-"); ok {
		if n, err := strconv.Atoi(s); err == nil && n > jm.seq {
			jm.seq = n
		}
	}
	jobCtx, cancel := context.WithCancel(jm.root)
	j := &jobEntry{status: job, cancel: cancel, run: run, done: make(chan struct{})}
	jm.jobs[job.ID] = j
	if job.IdempotencyKey != "" {
		jm.byKey[job.IdempotencyKey] = job.ID
	}
	if job.State.Terminal() {
		j.result = result
		jm.retainLocked(j)
		close(j.done)
		cancel()
		return
	}
	jm.active++
	j.status.State = api.JobPending
	j.status.Progress = api.JobProgress{}
	j.status.StartedAt = time.Time{}
	jm.wg.Add(1)
	go jm.execute(jobCtx, j)
}

// execute is the per-job goroutine: wait for a worker slot, run, finish.
func (jm *JobManager) execute(ctx context.Context, j *jobEntry) {
	defer jm.wg.Done()
	select {
	case jm.sem <- struct{}{}:
		defer func() { <-jm.sem }()
	case <-ctx.Done():
		// Canceled while still pending: never ran.
		jm.finish(j, nil, ctx.Err())
		return
	}
	if err := ctx.Err(); err != nil {
		jm.finish(j, nil, err)
		return
	}
	jm.mu.Lock()
	j.status.State = api.JobRunning
	j.status.StartedAt = jm.now()
	if jm.wal != nil {
		// Advisory: losing the start record only means recovery sees the
		// job as never-started and re-enqueues it, which is what it would
		// do for a running job anyway. The append is made under jm.mu so
		// lifecycle records land in transition order.
		if err := jm.wal.Append(durable.Record{
			Kind: durable.KindStart, ID: j.status.ID, Time: j.status.StartedAt,
		}); err != nil {
			jm.reportWALErr(err)
		}
	}
	jm.mu.Unlock()
	progress := func(stage string, done, total int) {
		jm.mu.Lock()
		j.status.Progress = api.JobProgress{Stage: stage, Done: done, Total: total}
		jm.mu.Unlock()
	}
	res, err := runProtected(ctx, j.run, progress, func(msg string) {
		if jm.panicHook != nil {
			jm.panicHook(j.status.ID, j.status.Type, j.tc.TraceID, msg)
		}
	})
	jm.finish(j, res, err)
}

// runProtected converts runner panics (shape mismatches deep in the nn
// stack) into typed internal errors so a malformed job cannot crash the
// service. onPanic (may be nil) observes the recovered value.
func runProtected(ctx context.Context, run JobRunner, progress func(string, int, int), onPanic func(string)) (res *api.JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if onPanic != nil {
				onPanic(fmt.Sprint(r))
			}
			res, err = nil, api.Errorf(api.CodeInternal, "serve: job panicked: %v", r)
		}
	}()
	return run(ctx, progress)
}

// finish records the terminal state. Cancellation maps to JobCanceled
// (shutting_down when the whole manager is closing, job_canceled when the
// client asked); other errors to JobFailed with their typed envelope.
func (jm *JobManager) finish(j *jobEntry, res *api.JobResult, err error) {
	// The runner is done with its context: cancelling it unlinks it from
	// the manager's root, which otherwise holds every job's context.
	j.cancel()
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j.status.FinishedAt = jm.now()
	switch {
	case err == nil:
		j.status.State = api.JobSucceeded
		j.result = res
	// The runner may hand cancellation back raw (ctx.Err()) or already
	// wrapped into the typed envelope; both mean the same thing here.
	case errors.Is(err, context.Canceled),
		api.AsError(err).Code == api.CodeCanceled:
		j.status.State = api.JobCanceled
		if jm.closed {
			j.status.Error = errShuttingDown()
		} else {
			j.status.Error = api.Errorf(api.CodeJobCanceled, "serve: job %s canceled", j.status.ID)
		}
	default:
		j.status.State = api.JobFailed
		j.status.Error = api.AsError(err)
	}
	// Persist the outcome as one terminal record carrying the result. A
	// result that does not marshal (a NaN loss) is left out, so recovery
	// re-runs the job; handed to Append it would latch the log failed.
	// Jobs interrupted by shutdown keep their non-terminal WAL state on
	// purpose: a drained replica's in-flight jobs resume on restart.
	if jm.wal != nil && !(jm.closed && j.status.State == api.JobCanceled) {
		var result json.RawMessage
		if j.status.State == api.JobSucceeded && j.result != nil {
			if b, merr := json.Marshal(j.result); merr == nil {
				result = b
			}
		}
		if werr := jm.wal.Append(durable.TerminalRecord(j.status, result)); werr != nil {
			jm.reportWALErr(werr)
		}
	}
	jm.active--
	jm.retainLocked(j)
	if j.tc.TraceID != "" {
		jm.tracer.Record(obs.Span{
			TraceID: j.tc.TraceID, SpanID: api.NewSpanID(), ParentID: j.tc.SpanID,
			Name: "job:" + string(j.status.Type), Start: j.status.CreatedAt,
			Seconds: j.status.FinishedAt.Sub(j.status.CreatedAt).Seconds(),
			Attrs: map[string]string{
				"id":    j.status.ID,
				"state": string(j.status.State),
			},
		})
	}
	// Last: whoever waits on done may read the trace straight away.
	close(j.done)
}

// retainLocked files a job that just turned terminal into finished at
// its FinishedAt position: the end for a live finish, anywhere for a
// recovered job, since the WAL replays in submit order, not finish order.
// Callers hold jm.mu.
func (jm *JobManager) retainLocked(j *jobEntry) {
	at := j.status.FinishedAt
	i := len(jm.finished)
	for i > 0 && at.Before(jm.finished[i-1].status.FinishedAt) {
		i--
	}
	jm.finished = slices.Insert(jm.finished, i, j)
}

// purgeLocked drops terminal jobs older than the retention TTL and, if
// history still outnumbers 4×maxJobs, the oldest terminal jobs beyond that
// cap — memory stays bounded even under a submit storm faster than the
// TTL. Both are a prefix of finished, so it pops from the front, freeing
// each job's idempotency key too. The WAL needs no delete record: expired
// jobs are simply not re-appended at the next compaction. Callers hold
// jm.mu.
func (jm *JobManager) purgeLocked() {
	cutoff := jm.now().Add(-jm.ttl)
	for len(jm.finished) > 0 {
		j := jm.finished[0]
		if !j.status.FinishedAt.Before(cutoff) && len(jm.finished) <= 4*jm.maxJobs {
			return
		}
		id, key := j.status.ID, j.status.IdempotencyKey
		delete(jm.jobs, id)
		if key != "" && jm.byKey[key] == id {
			delete(jm.byKey, key)
		}
		jm.finished[0] = nil
		jm.finished = jm.finished[1:]
	}
}

// Get returns a job's status snapshot.
func (jm *JobManager) Get(id string) (api.Job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.purgeLocked()
	j, ok := jm.jobs[id]
	if !ok {
		return api.Job{}, api.Errorf(api.CodeJobNotFound, "serve: no job %q", id)
	}
	return j.status, nil
}

// GetByKey returns the job holding an idempotency key — the lookup a
// shard router uses to ask each member of a key's owner set "do you hold
// key X?" before admitting a resubmission. An unclaimed (or expired) key
// answers a typed job_not_found.
func (jm *JobManager) GetByKey(key string) (api.Job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.purgeLocked()
	if key != "" {
		if id, ok := jm.byKey[key]; ok {
			if j, ok := jm.jobs[id]; ok {
				return j.status, nil
			}
		}
	}
	return api.Job{}, api.Errorf(api.CodeJobNotFound, "serve: no job under idempotency key %q", key)
}

// List returns every live job, oldest first.
func (jm *JobManager) List() []api.Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.purgeLocked()
	out := make([]api.Job, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		out = append(out, j.status)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].CreatedAt.Before(out[b].CreatedAt) })
	return out
}

// Result returns a succeeded job's output; non-terminal jobs answer
// job_not_ready, canceled ones job_canceled, failed ones their own error.
func (jm *JobManager) Result(id string) (*api.JobResult, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.purgeLocked()
	j, ok := jm.jobs[id]
	if !ok {
		return nil, api.Errorf(api.CodeJobNotFound, "serve: no job %q", id)
	}
	switch j.status.State {
	case api.JobSucceeded:
		return j.result, nil
	case api.JobCanceled:
		return nil, api.Errorf(api.CodeJobCanceled, "serve: job %q was canceled", id)
	case api.JobFailed:
		return nil, j.status.Error
	default:
		return nil, api.Errorf(api.CodeJobNotReady, "serve: job %q is %s", id, j.status.State)
	}
}

// Cancel requests cancellation and returns the current snapshot. Terminal
// jobs are untouched (cancel is idempotent); a pending or running job's
// context is canceled and its state becomes canceled once the runner
// observes the signal — poll GET /v2/jobs/{id} or use Done.
func (jm *JobManager) Cancel(id string) (api.Job, error) {
	jm.mu.Lock()
	j, ok := jm.jobs[id]
	if !ok {
		jm.mu.Unlock()
		return api.Job{}, api.Errorf(api.CodeJobNotFound, "serve: no job %q", id)
	}
	snapshot := j.status
	jm.mu.Unlock()
	if !snapshot.State.Terminal() {
		j.cancel()
	}
	return snapshot, nil
}

// Done exposes the job's terminal-state signal (tests and waiters).
func (jm *JobManager) Done(id string) (<-chan struct{}, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Stats counts live jobs by state (rendered into /metrics and /healthz).
// It purges first so the gauges agree with what Get/List would answer.
func (jm *JobManager) Stats() map[string]int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.purgeLocked()
	out := map[string]int{}
	for _, j := range jm.jobs {
		out[string(j.status.State)]++
	}
	return out
}

// Close cancels every non-terminal job and waits for their runners to
// return. Safe to call more than once.
func (jm *JobManager) Close() {
	jm.mu.Lock()
	jm.closed = true
	jm.mu.Unlock()
	jm.cancel()
	jm.wg.Wait()
}
