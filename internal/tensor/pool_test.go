package tensor

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{0, 1, 7, 100, 4096, 10001} {
		for _, work := range []int{1, fanOutWork, 3 * fanOutWork, 64 * fanOutWork} {
			var hits atomic.Int64
			seen := make([]int32, n)
			p.ParallelFor(n, work, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d work=%d", lo, hi, n, work)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					hits.Add(1)
				}
			})
			if hits.Load() != int64(n) {
				t.Fatalf("n=%d work=%d: %d iterations executed", n, work, hits.Load())
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d work=%d: index %d executed %d times", n, work, i, c)
				}
			}
		}
	}
}

func TestParallelForNilPoolRunsInline(t *testing.T) {
	var p *Pool
	calls := 0
	p.ParallelFor(100, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("nil pool should run one inline range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool ran %d ranges", calls)
	}
	if w, busy, done := p.Stats(); w != 0 || busy != 0 || done != 0 {
		t.Fatalf("nil pool Stats() = %d, %d, %d", w, busy, done)
	}
}

// TestParallelForNested drives nested ParallelFor from inside workers hard
// enough to saturate the task queue; the caller-participates design must
// complete every inner loop without deadlock. Run with -race in CI.
func TestParallelForNested(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	p.ParallelFor(64, 64*fanOutWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelFor(128, 128*fanOutWork, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if total.Load() != 64*128 {
		t.Fatalf("nested iterations = %d, want %d", total.Load(), 64*128)
	}
}

// TestPoolConcurrentKernels exercises many goroutines issuing pooled
// kernels at once (the serve batcher's situation) under -race in CI.
func TestPoolConcurrentKernels(t *testing.T) {
	done := make(chan *Tensor, 8)
	a := New(70, 40)
	b := New(40, 50)
	for i := range a.Data {
		a.Data[i] = float64(i % 11)
	}
	for i := range b.Data {
		b.Data[i] = float64(i % 7)
	}
	for g := 0; g < 8; g++ {
		go func() { done <- MatMul(a, b) }()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		got := <-done
		for i := range got.Data {
			if got.Data[i] != first.Data[i] {
				t.Fatalf("concurrent MatMul results diverge at %d", i)
			}
		}
	}
}

// TestParallelForJobRecycling is the -race stress of the recycled job
// structs. Many goroutines issue nested multi-chunk calls against a
// two-worker pool, so the queue is saturated most of the time, helpers are
// routinely dequeued only after their caller has returned, and every job
// is reissued over and over. Each call sums its own index range into its
// own accumulator: a helper that touched a reissued job would run another
// call's closure (a wrong sum here, or a write the race detector sees), and
// a job recycled while a chunk was still pending would release its caller
// early (a short sum).
func TestParallelForJobRecycling(t *testing.T) {
	p := NewPool(2)
	const callers, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 17 + (g*rounds+r)%40
				var outer atomic.Int64
				p.ParallelFor(n, n*fanOutWork, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						var inner atomic.Int64
						p.ParallelFor(i+2, (i+2)*fanOutWork, func(ilo, ihi int) {
							for k := ilo; k < ihi; k++ {
								inner.Add(int64(k))
							}
						})
						if want := int64(i+2) * int64(i+1) / 2; inner.Load() != want {
							t.Errorf("inner sum over [0,%d) = %d, want %d", i+2, inner.Load(), want)
						}
						outer.Add(int64(i))
					}
				})
				if want := int64(n) * int64(n-1) / 2; outer.Load() != want {
					t.Errorf("outer sum over [0,%d) = %d, want %d", n, outer.Load(), want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelForLateHelper pins the reference count directly, on a pool
// whose queue nobody drains: every helper is still queued when its caller
// returns. Such a job must stay out of the free list (the next call gets
// another struct), and when the helper finally runs it must find no chunk
// to claim and give the job back.
func TestParallelForLateHelper(t *testing.T) {
	p := &Pool{workers: 1, tasks: make(chan *job, 3), free: make([]atomic.Pointer[job], 4)}
	var iterations atomic.Int64
	call := func() { p.ParallelFor(4, 4*fanOutWork, func(lo, hi int) { iterations.Add(int64(hi - lo)) }) }
	for i := 0; i < cap(p.tasks); i++ {
		call()
	}
	call() // queue full: this one runs without a helper and recycles its job itself
	if p.takeJob().fn != nil || p.free[0].Load() != nil {
		t.Fatal("the call without helpers did not give its job back")
	}
	if got := iterations.Load(); got != 4*int64(cap(p.tasks)+1) {
		t.Fatalf("callers covered %d iterations", got)
	}
	seen := map[*job]bool{}
	for len(p.tasks) > 0 {
		j := <-p.tasks
		if seen[j] {
			t.Fatal("a job was reissued while one of its helpers was still queued")
		}
		seen[j] = true
		if refs := j.refs.Load(); refs != 1 {
			t.Fatalf("queued helper's job holds %d references, want 1", refs)
		}
		if j.fn == nil {
			t.Fatal("job was recycled under its queued helper")
		}
		j.run()
		p.release(j)
		if j.fn != nil || p.takeJob() != j {
			t.Fatal("last reference gone but the job was not recycled")
		}
	}
	if len(seen) != cap(p.tasks) {
		t.Fatalf("%d helpers were queued, want %d", len(seen), cap(p.tasks))
	}
	if got := iterations.Load(); got != 4*int64(cap(p.tasks)+1) {
		t.Fatalf("late helpers ran chunks: %d iterations in total", got)
	}
}

// TestChunksRule is the fan-out rule's property test. Over random (n, work),
// from far below fanOutWork to far above MaxChunks of it, on pools of nil,
// 1, 2 and 4 workers: every index runs once, every pool runs the same
// chunks, there are at most MaxChunks of them and exactly one below
// fanOutWork, Inline agrees, and lo·MaxChunks/n numbers the chunks apart
// (the strided FFT passes keep a slab per chunk by that number).
func TestChunksRule(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pools := []*Pool{nil, NewPool(1), NewPool(2), NewPool(4)}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		work := int(rng.Int63n(1 << rng.Intn(24)))
		var want [][2]int
		for pi, p := range pools {
			var mu sync.Mutex
			var got [][2]int
			seen := make([]int32, n)
			p.ParallelFor(n, work, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				mu.Lock()
				got = append(got, [2]int{lo, hi})
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d work=%d pool %d: index %d ran %d times", n, work, pi, i, c)
				}
			}
			slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
			if pi == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("n=%d work=%d: pool %d ran chunks %v, the nil pool %v", n, work, pi, got, want)
			}
			if p != nil && p.Inline(n, work) != (len(got) == 1) {
				t.Fatalf("n=%d work=%d: Inline is %v with %d chunks", n, work, p.Inline(n, work), len(got))
			}
		}
		if len(want) > MaxChunks || work < fanOutWork && len(want) != 1 {
			t.Fatalf("n=%d work=%d: %d chunks", n, work, len(want))
		}
		for c := 1; c < len(want); c++ {
			if want[c-1][0]*MaxChunks/n == want[c][0]*MaxChunks/n {
				t.Fatalf("n=%d work=%d: chunks %v and %v share a slab number", n, work, want[c-1], want[c])
			}
		}
	}
}
