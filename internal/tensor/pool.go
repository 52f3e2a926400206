package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for data-parallel kernels. It exists so
// that hot loops (matmul, element-wise ops, solver steps) do not pay a
// goroutine spawn + scheduler wakeup per call: the workers are started once
// and fed recycled job structs through a bounded queue, so a ParallelFor
// call allocates nothing of its own.
//
// Determinism contract: ParallelFor decomposes [0, n) into fixed chunks of
// `grain` iterations. The decomposition depends only on (n, grain) — never
// on the worker count or on whether a pool is present — so any kernel whose
// per-chunk work writes disjoint outputs (or fills per-chunk partials that
// are combined in chunk order afterwards) produces bit-identical results
// serial or parallel, on any machine. All kernels in this repository follow
// that contract, and the parity tests assert it.
type Pool struct {
	workers int
	tasks   chan *job

	// Utilization counters read by the observability layer: how many
	// workers are executing a task right now, and how many tasks the
	// workers have completed since the pool started. Chunks executed
	// inline on the calling goroutine are not counted — these measure
	// pool occupancy, not kernel throughput.
	busy      atomic.Int64
	tasksDone atomic.Uint64
}

// NewPool starts a pool with the given number of workers (minimum 1). The
// calling goroutine always participates in ParallelFor, so a pool of W
// workers can have W+1 goroutines executing chunks.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	// 4 slots per worker: room for a few nested or concurrent calls to
	// queue their helpers; a full queue only costs a call its helpers.
	p := &Pool{workers: workers, tasks: make(chan *job, 4*workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.tasks {
				p.busy.Add(1)
				j.run()
				j.release()
				p.busy.Add(-1)
				p.tasksDone.Add(1)
			}
		}()
	}
	return p
}

// job is one multi-chunk ParallelFor call: the caller and every helper it
// queued claim chunks from next until none are left. Jobs are recycled
// through jobs, and refs decides when: the caller holds one reference and
// each queued helper one, so a helper that only starts after the caller
// has returned still finds its own job (with no chunk left to claim), and
// the struct is reissued only once the last of them has let go.
type job struct {
	fn               func(lo, hi int)
	n, grain, chunks int
	next             atomic.Int64   // next unclaimed chunk
	pending          sync.WaitGroup // chunks not yet finished
	refs             atomic.Int32
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// run executes chunks until all are claimed. Completion is tracked per
// CHUNK, not per helper: a queued helper that only starts after all chunks
// are claimed finds nothing to do and exits, and nobody waits on it. This
// is what makes nested ParallelFor deadlock-free — a goroutine blocked in
// pending.Wait is only ever waiting on chunks that some live goroutine is
// actively executing.
func (j *job) run() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.grain
		j.fn(lo, min(lo+j.grain, j.n))
		j.pending.Done()
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil // do not pin the caller's closure while the job sits in the pool
		jobs.Put(j)
	}
}

// Stats reports the pool's size and utilization: total workers, workers
// currently executing a task, and tasks completed since the pool started.
func (p *Pool) Stats() (workers, busy int, tasksDone uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.workers, int(p.busy.Load()), p.tasksDone.Load()
}

// PoolStats reports Stats for the process-wide default pool (zeros when
// parallelism is off or the process is single-core).
func PoolStats() (workers, busy int, tasksDone uint64) {
	return DefaultPool().Stats()
}

var (
	defaultPool     atomic.Pointer[Pool]
	defaultPoolOnce sync.Once
	parallelOff     atomic.Bool
)

// DefaultPool returns the process-wide kernel pool, sized to GOMAXPROCS at
// first use. It returns nil — meaning "run serial" — on single-core
// processes (where workers can only add overhead) and while parallelism is
// disabled via SetParallel(false). All kernels accept a nil pool.
func DefaultPool() *Pool {
	if parallelOff.Load() {
		return nil
	}
	defaultPoolOnce.Do(func() {
		if w := runtime.GOMAXPROCS(0); w > 1 {
			defaultPool.Store(NewPool(w))
		}
	})
	return defaultPool.Load()
}

// SetParallel toggles the default pool off/on. It exists for the parity
// tests and the kernel benchmarks, which measure the identical code path
// with and without workers; results are bit-identical either way (see the
// Pool determinism contract).
func SetParallel(on bool) { parallelOff.Store(!on) }

// SetWorkers replaces the default pool with one of n workers; n <= 0
// restores the GOMAXPROCS default and n == 1 means serial. The previous
// pool's workers wind down only when the process exits, so this is a
// configuration/testing knob, not something to call per-request. Kernels
// already in flight keep the pool they started with.
func SetWorkers(n int) {
	defaultPoolOnce.Do(func() {})
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == 1 {
		defaultPool.Store(nil)
		return
	}
	defaultPool.Store(NewPool(n))
}

// Inline reports whether ParallelFor(n, grain, fn) would simply call
// fn(0, n) on the caller: no pool, or a single chunk. A closure handed to
// ParallelFor escapes, so it costs an allocation even on that path;
// kernels on hot paths ask Inline first and call their range function
// directly, constructing the closure only when there is work to share.
func (p *Pool) Inline(n, grain int) bool { return p == nil || n <= max(grain, 1) }

// ParallelFor runs fn over [0, n) split into chunks of grain iterations.
// fn(lo, hi) must be safe to run concurrently with other chunks (disjoint
// writes). A nil pool, a single chunk, or a saturated task queue degrade to
// inline execution on the caller; the chunk decomposition is unchanged, so
// results are identical. ParallelFor may be called from inside a chunk
// (nested data parallelism): the inner call simply shares the queue, and
// because the caller always works through the remaining chunks itself, no
// call can deadlock waiting for a free worker.
func (p *Pool) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.Inline(n, grain) {
		fn(0, n)
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	j := jobs.Get().(*job)
	j.fn, j.n, j.grain, j.chunks = fn, n, grain, chunks
	j.next.Store(0)
	j.pending.Add(chunks)
	helpers := min(p.workers, chunks-1)
	j.refs.Store(int32(1 + helpers)) // the caller's, and one per helper
queue:
	for sent := 0; sent < helpers; sent++ {
		select {
		case p.tasks <- j:
		default:
			// Queue saturated (deep nesting or heavy load): give back the
			// references of the helpers that were not queued; the caller
			// works through every chunk.
			j.refs.Add(int32(sent - helpers))
			break queue
		}
	}
	j.run()
	j.pending.Wait()
	j.release()
}
