package serve

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/pkg/api"
)

// inferRequest is one example awaiting inference. The batcher owns it from
// enqueue until a result (or error) is delivered on resp.
type inferRequest struct {
	ctx   context.Context // the submitting caller's context
	input *tensor.Tensor  // per-example tensor, no batch dimension
	resp  chan inferResult

	// Trace identity captured at admission: the queue and execute spans
	// recorded when the request's batch runs are parented to the server
	// span that enqueued it. Zero when the request carries no trace.
	tc       api.TraceContext
	enqueued time.Time
}

type inferResult struct {
	output    *tensor.Tensor
	version   int
	batchSize int
	err       error
}

// Batcher implements the service's micro-batch scheduler: per-model queues
// feed per-model dispatcher goroutines, and each batch runs ONE forward
// pass on a pooled model replica, at most `workers` (default GOMAXPROCS)
// batches at a time. A dispatcher takes the first queued request, waits
// for a free worker slot, then takes whatever else is queued, up to
// MaxBatch; it never waits for arrivals. Under load the mean batch size
// rises and per-item cost falls, like inventory batching in queueing
// systems. A call's items are admitted under one hold of b.mu, and a
// dispatcher takes and releases b.mu before it collects, so a call that
// was mid-admission is queued whole: a lone call of up to MaxBatch items
// is one batch. A batch of mixed input shapes runs one pass per shape.
//
// Row independence of the Table 2 architectures (matmuls, layer norms,
// attention and convolutions never mix batch rows) makes batched outputs
// bit-identical to single-request inference — the invariant the tests and
// the bench/ ledger's online-infer workload check.
//
// Admission control: a per-model queue at capacity rejects immediately with
// the typed api.CodeOverloaded error (HTTP 429 + Retry-After) instead of
// blocking the caller's goroutine, and every Infer call carries a context —
// a caller that cancels while queued gets api.CodeCanceled back at once and
// its request is dropped (unstarted) when its batch is assembled.
type Batcher struct {
	reg      *Registry
	met      *Metrics
	maxBatch int
	queueCap int

	// slots holds one token per running batch; its capacity is the
	// worker bound.
	slots chan struct{}

	// tracer records per-request queue/execute spans; nil disables tracing.
	tracer *obs.Tracer

	mu      sync.Mutex
	queues  map[string]chan *inferRequest
	stopped bool // set under mu before the drain; gates admission

	stop     chan struct{}
	stopOnce sync.Once
	wgDisp   sync.WaitGroup // dispatcher goroutines
}

// defaultQueueCap bounds each per-model queue when the config does not;
// enqueues beyond it are rejected with api.CodeOverloaded, applying
// backpressure to clients instead of growing memory (or blocked handler
// goroutines) without bound.
const defaultQueueCap = 1024

// errShuttingDown is the typed drain error every abandoned request gets.
func errShuttingDown() *api.Error {
	return api.Errorf(api.CodeShuttingDown, "serve: shutting down")
}

// NewBatcher returns a batcher with no queues yet. maxBatch <= 0 defaults
// to 16, workers (concurrent batches) <= 0 to GOMAXPROCS, queueCap <= 0
// to 1024.
func NewBatcher(reg *Registry, met *Metrics, maxBatch, workers, queueCap int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 16
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	b := &Batcher{
		reg: reg, met: met, maxBatch: maxBatch, queueCap: queueCap,
		slots:  make(chan struct{}, workers),
		queues: map[string]chan *inferRequest{},
		stop:   make(chan struct{}),
	}
	met.SetQueueDepthFunc(b.QueueDepth)
	return b
}

// SetTracer installs the span recorder for queue/execute phases. Call
// before serving traffic (not synchronized with in-flight batches).
func (b *Batcher) SetTracer(t *obs.Tracer) { b.tracer = t }

// admitAll enqueues a call's examples for the named model without
// blocking, each its own queue entry (QueueCap counts items), all under
// one hold of b.mu (see dispatch), and returns the requests to wait on in
// order. An example refused at admission ends it: the requests before it
// are returned with the refusal, api.CodeOverloaded for a full queue or
// api.CodeShuttingDown once Stop has begun. wait then blocks until a
// result is ready, the batcher is draining (api.CodeShuttingDown), or ctx
// is done (api.CodeCanceled / api.CodeDeadlineExceeded). All failures are
// typed *api.Error values.
func (b *Batcher) admitAll(ctx context.Context, model string, inputs []*tensor.Tensor) ([]inferRequest, error) {
	tc, _ := api.TraceFrom(ctx)
	now := time.Now()
	reqs := make([]inferRequest, len(inputs))
	// Admission happens under b.mu so it cannot race Stop: Stop sets
	// `stopped` under the same lock before draining, so a request admitted
	// here is either answered by its dispatcher or by the drain loop —
	// never silently lost (and queueFor can no longer wgDisp.Add a new
	// dispatcher concurrently with Stop's wgDisp.Wait).
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return nil, errShuttingDown()
	}
	q := b.queueForLocked(model)
	for i, in := range inputs {
		reqs[i] = inferRequest{ctx: ctx, input: in, resp: make(chan inferResult, 1), tc: tc, enqueued: now}
		select {
		case q <- &reqs[i]:
		default:
			b.met.ObserveRejected()
			return reqs[:i], api.Errorf(api.CodeOverloaded,
				"serve: model %q queue full (%d waiting)", model, b.queueCap).WithRetryAfter(1)
		}
	}
	return reqs, nil
}

// wait blocks until the admitted request's batch has run or its context is
// done. The response channel is buffered, so abandoning the wait never
// blocks the dispatcher; an admitted-then-canceled request is detected and
// skipped when its batch runs.
func (r *inferRequest) wait() inferResult {
	select {
	case res := <-r.resp:
		return res
	case <-r.ctx.Done():
		return inferResult{err: api.AsError(r.ctx.Err())}
	}
}

// queueForLocked returns (creating if needed) the model's queue. Callers
// hold b.mu.
func (b *Batcher) queueForLocked(model string) chan *inferRequest {
	q, ok := b.queues[model]
	if !ok {
		q = make(chan *inferRequest, b.queueCap)
		b.queues[model] = q
		b.wgDisp.Add(1)
		go b.dispatch(model, q)
	}
	return q
}

// QueueDepth returns the total number of queued (not yet dispatched)
// requests across models.
func (b *Batcher) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, q := range b.queues {
		n += len(q)
	}
	return n
}

// dispatch is the per-model collection loop.
func (b *Batcher) dispatch(model string, q chan *inferRequest) {
	defer b.wgDisp.Done()
	for {
		// Priority check: once Stop has fired, halt even if the queue still
		// has entries — a bare two-case select picks randomly when both are
		// ready, which would let a draining dispatcher keep serving
		// arbitrarily long. Queued leftovers get the typed shutting_down
		// error from Stop's drain loop.
		select {
		case <-b.stop:
			return
		default:
		}
		var first *inferRequest
		select {
		case <-b.stop:
			return
		case first = <-q:
		}
		// Wait for a free worker slot: whatever queues while every worker
		// is busy joins this batch.
		select {
		case <-b.stop:
			first.resp <- inferResult{err: errShuttingDown()}
			return
		case b.slots <- struct{}{}:
		}
		// The barrier: admitAll fills the queue under b.mu, so once the lock
		// has been taken here, the call `first` belongs to is queued whole.
		b.mu.Lock()
		b.mu.Unlock()
		batch := make([]*inferRequest, 1, b.maxBatch)
		batch[0] = first
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r := <-q:
				batch = append(batch, r)
			default:
				break collect
			}
		}
		go func() {
			defer func() { <-b.slots }()
			b.runBatch(model, batch)
		}()
	}
}

// runBatch answers the requests whose context died while queued (typed
// canceled error) and drops them before any compute is spent on them,
// closes each remaining request's queue span, then runs one forward pass
// per input shape: the first request's shape and every request sharing
// it, then the rest the same way. Mixed shapes cannot share a pass, and
// splitting rather than rejecting keeps clients with heterogeneous
// windows working.
func (b *Batcher) runBatch(model string, batch []*inferRequest) {
	live := batch[:0]
	dispatched := time.Now()
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.resp <- inferResult{err: api.AsError(err)}
			continue
		}
		live = append(live, r)
		if r.tc.TraceID != "" {
			b.tracer.Record(obs.Span{
				TraceID: r.tc.TraceID, SpanID: api.NewSpanID(), ParentID: r.tc.SpanID,
				Name: "queue:" + model, Start: r.enqueued,
				Seconds: dispatched.Sub(r.enqueued).Seconds(),
			})
		}
	}
	for batch = live; len(batch) > 0; {
		// Partition in place: the requests sharing batch[0]'s shape move
		// to the front, in order.
		n := 1
		for i := 1; i < len(batch); i++ {
			if slices.Equal(batch[i].input.Shape, batch[0].input.Shape) {
				batch[n], batch[i] = batch[i], batch[n]
				n++
			}
		}
		b.met.ObserveBatch(n)
		b.runPass(model, batch[:n])
		batch = batch[n:]
	}
}

// runPass stacks a batch of one input shape, runs one forward pass on a
// pooled replica, and scatters the output rows back to the waiting
// requests.
func (b *Batcher) runPass(model string, batch []*inferRequest) {
	fail := func(err error) {
		for _, r := range batch {
			r.resp <- inferResult{err: err}
		}
	}
	entry, ok := b.reg.Lookup(model)
	if !ok {
		fail(api.Errorf(api.CodeModelNotFound, "serve: model %q disappeared", model))
		return
	}

	// recordExec stamps each traced request's execute span: replica
	// acquisition + the shared forward pass, with the realized batch size.
	execStart := time.Now()
	recordExec := func(errMsg string) {
		secs := time.Since(execStart).Seconds()
		// One map for the whole batch: recorded spans are never written to.
		attrs := map[string]string{"batch_size": strconv.Itoa(len(batch))}
		if errMsg != "" {
			attrs["error"] = errMsg
		}
		for _, r := range batch {
			if r.tc.TraceID == "" {
				continue
			}
			b.tracer.Record(obs.Span{
				TraceID: r.tc.TraceID, SpanID: api.NewSpanID(), ParentID: r.tc.SpanID,
				Name: "execute:" + model, Start: execStart, Seconds: secs, Attrs: attrs,
			})
		}
	}
	// A single-request batch waits for its replica under the requester's
	// own context (cancelable); a shared batch must not let one client
	// cancel work its peers still wait on, so it acquires unconditionally.
	//sicklevet:ignore ctxfirst shared batches outlive any one requester, see comment above
	acquireCtx := context.Background()
	if len(batch) == 1 {
		acquireCtx = batch[0].ctx
	}
	rep, err := entry.Acquire(acquireCtx)
	if err != nil {
		recordExec(api.AsError(err).Message)
		fail(api.AsError(err))
		return
	}
	// Both the stacked input and the prediction live on the replica's own
	// workspaces (steady-state batching allocates neither), so the replica
	// is released only after the rows have been copied out: released any
	// earlier, the next batch to acquire it would overwrite out mid-copy.
	rows, err := inferRows(model, rep, batch)
	entry.Release(rep)
	if err != nil {
		recordExec(err.Error())
		fail(err)
		return
	}
	recordExec("")
	for i, r := range batch {
		r.resp <- inferResult{output: rows[i], version: entry.Version, batchSize: len(batch)}
	}
}

// inferRows runs one forward pass over the stacked batch on rep and
// returns a private copy of each request's output row.
func inferRows(model string, rep train.Model, batch []*inferRequest) ([]*tensor.Tensor, error) {
	out, err := forward(rep, stackInputs(rep, batch))
	if err != nil {
		return nil, err
	}
	if out.Dim(0) != len(batch) {
		return nil, api.Errorf(api.CodeInternal,
			"serve: model %q returned batch %d for input batch %d", model, out.Dim(0), len(batch))
	}
	rows := make([]*tensor.Tensor, len(batch))
	stride := out.Len() / out.Dim(0)
	for i := range rows {
		rows[i] = tensor.New(out.Shape[1:]...)
		copy(rows[i].Data, out.Data[i*stride:(i+1)*stride])
	}
	return rows, nil
}

// forward runs the model's forward pass, converting panics (shape
// mismatches inside the nn stack) into errors so a malformed request cannot
// crash the service.
func forward(m interface {
	Forward(*tensor.Tensor) *tensor.Tensor
}, in *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = api.Errorf(api.CodeInternal, "serve: forward pass failed: %v", r)
		}
	}()
	return m.Forward(in), nil
}

// stackInputs assembles [B, ...] from per-example tensors of equal shape
// on the replica's batch tape.
func stackInputs(rep train.Model, batch []*inferRequest) *tensor.Tensor {
	ws := train.BatchTape(rep)
	ws.Reset()
	out := ws.NewBatch(len(batch), batch[0].input)
	stride := batch[0].input.Len()
	for i, r := range batch {
		copy(out.Data[i*stride:(i+1)*stride], r.input.Data)
	}
	return out
}

// Stop terminates the dispatchers and waits for the running batches. Call
// only after the HTTP server has drained: a request that is not yet in a
// running batch when Stop begins fails fast with the typed shutting_down
// error.
func (b *Batcher) Stop() {
	b.stopOnce.Do(func() {
		// Close admission first (under the same lock Infer admits under):
		// everything in a queue after this point was admitted before the
		// flag flipped and is answered by a running batch or the drain below.
		b.mu.Lock()
		b.stopped = true
		b.mu.Unlock()
		close(b.stop)
		// Dispatchers are the only takers from the queues and the only
		// starters of batches; once they are gone, what is queued stays
		// queued and every running batch holds a slot.
		b.wgDisp.Wait()
		b.mu.Lock()
		queues := make([]chan *inferRequest, 0, len(b.queues))
		for _, q := range b.queues {
			queues = append(queues, q)
		}
		b.mu.Unlock()
		for _, q := range queues {
		drain:
			for {
				select {
				case r := <-q:
					r.resp <- inferResult{err: errShuttingDown()}
				default:
					break drain
				}
			}
		}
		// Holding every slot means no batch is running.
		for i := 0; i < cap(b.slots); i++ {
			b.slots <- struct{}{}
		}
	})
}
