package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for data-parallel kernels. It exists so
// that hot loops (matmul, element-wise ops, solver steps) do not pay a
// goroutine spawn + scheduler wakeup per call: the workers are started once
// and fed job structs through a bounded queue, and the jobs come back to a
// free list any goroutine takes from, so a ParallelFor call allocates
// nothing of its own.
//
// Determinism contract: ParallelFor decomposes [0, n) into chunks that
// depend only on (n, work) — never on the worker count or on whether a pool
// is present — so any kernel whose per-chunk work writes disjoint outputs
// (or fills per-chunk partials that are combined in chunk order afterwards)
// produces bit-identical results serial or parallel, on any machine. All
// kernels in this repository follow that contract, and the parity tests
// assert it.
type Pool struct {
	workers int
	tasks   chan *job
	free    []atomic.Pointer[job]

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
	// queue their helpers; a full queue only costs a call its helpers. The
	// free list starts full, one job per queue slot: queued helpers keep at
	// most that many out once their callers have returned.
	p := &Pool{workers: workers, tasks: make(chan *job, 4*workers), free: make([]atomic.Pointer[job], 4*workers)}
	for i := range p.free {
		p.free[i].Store(new(job))
	}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.tasks {
				p.busy.Add(1)
				j.run()
				p.release(j)
				p.busy.Add(-1)
				p.tasksDone.Add(1)
			}
		}()
	}
	return p
}

// job is one multi-chunk ParallelFor call: the caller and every helper it
// queued claim chunks from next until none are left. Jobs are recycled
// through the pool's free list, and refs decides when: the caller holds
// one reference and each queued helper one, so a helper that only starts
// after the caller has returned still finds its own job (with no chunk
// left to claim), and the struct is reissued only once the last of them
// has let go.
type job struct {
	fn               func(lo, hi int)
	n, grain, chunks int
	next             atomic.Int64   // next unclaimed chunk
	pending          sync.WaitGroup // chunks not yet finished
	refs             atomic.Int32
}

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

// release drops one reference to j and, with the last, puts j in the
// lowest empty free slot (none empty: the collector takes it). Unlike a
// sync.Pool's per-P slots, these hand any job to any goroutine and survive
// collections.
func (p *Pool) release(j *job) {
	if j.refs.Add(-1) == 0 {
		j.fn = nil // do not pin the caller's closure while the job sits in the pool
		for i := range p.free {
			if p.free[i].CompareAndSwap(nil, j) {
				return
			}
		}
	}
}

// takeJob takes the job in the lowest full slot, the one most likely
// still in cache, or allocates one when every slot is empty.
func (p *Pool) takeJob() *job {
	for i := range p.free {
		if j := p.free[i].Swap(nil); j != nil {
			return j
		}
	}
	return new(job)
}

// Stats reports the pool's size and utilization: total workers, workers
// currently executing a task, and tasks completed since the pool started.
func (p *Pool) Stats() (workers, busy int, tasksDone uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.workers, int(p.busy.Load()), p.tasksDone.Load()
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

// The fan-out rule: a call runs as work/fanOutWork chunks, at least 1 and
// at most MaxChunks or n, where work counts multiply-add-sized steps
// (multiply-adds for a matmul, elements for an element-wise kernel,
// inner-loop iterations elsewhere). The sweep behind both (2-core Xeon,
// GOMAXPROCS 2, medians of 6): an empty fan-out costs 0.46 µs at 2 chunks
// and 0.58 µs at 16 (BenchmarkParallelForOverhead). With the Go strips a·b
// at m×32×32 (BenchmarkMatMulLedgerShapes/split) first gained from a split
// at 2^16 multiply-adds and at 2^19 ran 164, 154, 121, 123 and 129 µs in 1,
// 2, 4, 8 and 16 chunks; with the AVX2 strips no split below 2^19 gains
// (2^16: 4.47 µs whole, 5.13 in 2 chunks) and 2^19 runs 35.6, 39.6, 33.2,
// 36.1 and 37.6 µs. fanOutWork stays at 2^15 for the element-wise, FFT and
// solver kernels, whose steps got no cheaper. Tests lower fanOutWork to
// reach the pool at small shapes; nothing else sets it.
var fanOutWork = 1 << 15

// MaxChunks is the most chunks one call is split into; a strided FFT pass
// keeps a scratch slab per chunk, so MaxChunks of them.
const MaxChunks = 16

func chunks(n, work int) int { return max(1, min(work/fanOutWork, MaxChunks, n)) }

// Inline reports whether ParallelFor(n, work, fn) would run on the caller
// alone: no pool, or one chunk. A closure handed to ParallelFor escapes, so
// hot kernels whose chunks write disjoint outputs ask Inline first and call
// their range function on [0, n) directly.
func (p *Pool) Inline(n, work int) bool { return p == nil || chunks(n, work) == 1 }

// ParallelFor runs fn over [0, n) in chunks of one length (the last may be
// shorter), so chunk starts lie at least n/MaxChunks apart. fn(lo, hi) must
// be safe to run concurrently with other chunks (disjoint writes). A nil
// pool or a saturated task queue runs the same chunks on the caller.
// ParallelFor may be called from inside a chunk (nested data parallelism):
// the inner call simply shares the queue, and because the caller always
// works through the remaining chunks itself, no call can deadlock waiting
// for a free worker.
func (p *Pool) ParallelFor(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c := chunks(n, work)
	grain := (n + c - 1) / c
	if p == nil || c == 1 {
		for lo := 0; lo < n; lo += grain {
			fn(lo, min(lo+grain, n))
		}
		return
	}
	c = (n + grain - 1) / grain // rounding the grain up can leave fewer
	j := p.takeJob()
	j.fn, j.n, j.grain, j.chunks = fn, n, grain, c
	j.next.Store(0)
	j.pending.Add(c)
	helpers := min(p.workers, c-1)
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
	p.release(j)
}
