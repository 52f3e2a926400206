// Package minimpi is a goroutine-based runtime that stands in for MPI in
// SICKLE-Go. It provides ranks, the partition of a range over them, and the
// two collectives the program calls (a sum Allreduce and a Gather), plus
// an injectable communication cost model so the Fig. 7 scalability
// experiments can account for interconnect overhead that goroutines on one
// machine do not exhibit.
//
// Semantics follow MPI: Run launches size ranks and blocks until all of
// them return; collectives must be called by every rank.
package minimpi

import (
	"fmt"
	"math"
	"sync"
)

// CostModel charges simulated communication time. Collectives are modeled
// as log2(P)-depth trees: cost = (Latency + bytes/Bandwidth) · ceil(log2 P).
// A zero model charges nothing.
type CostModel struct {
	Latency   float64 // seconds per message hop
	Bandwidth float64 // bytes per second (0 = infinite)
}

// Cost is the simulated time of one collective moving bytes among ranks.
func (m CostModel) Cost(bytes int, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	hops := math.Ceil(math.Log2(float64(ranks)))
	c := m.Latency
	if m.Bandwidth > 0 {
		c += float64(bytes) / m.Bandwidth
	}
	return c * hops
}

// World is the shared state of one Run.
type World struct {
	size    int
	cost    CostModel
	barrier *cyclicBarrier
	// shared scratch for collectives, guarded by the barrier protocol.
	collect [][]float64
	sum     []float64
	mu      sync.Mutex
	simComm []float64 // per-rank accumulated simulated comm seconds
}

// Comm is one rank's handle on the world.
type Comm struct {
	w    *World
	rank int
}

// Run executes fn on size concurrent ranks and waits for completion.
func Run(size int, cost CostModel, fn func(c *Comm)) *World {
	if size <= 0 {
		panic(fmt.Sprintf("minimpi: size must be positive, got %d", size))
	}
	w := &World{
		size:    size,
		cost:    cost,
		barrier: newCyclicBarrier(size),
		collect: make([][]float64, size),
		simComm: make([]float64, size),
	}
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(&Comm{w: w, rank: rank})
		}(r)
	}
	wg.Wait()
	return w
}

// Rank returns this rank's id in [0, size).
func (c *Comm) Rank() int { return c.rank }

// MaxSimCommSeconds returns the max simulated comm time across ranks
// (call after Run returns, on the World).
func (w *World) MaxSimCommSeconds() float64 {
	m := 0.0
	for _, v := range w.simComm {
		if v > m {
			m = v
		}
	}
	return m
}

func (c *Comm) charge(bytes int) {
	c.w.simComm[c.rank] += c.w.cost.Cost(bytes, c.w.size)
}

// sync waits for every rank. It is uncharged: each collective charges its
// cost once instead.
func (c *Comm) sync() {
	c.w.barrier.await()
}

// Gather collects each rank's contribution on the root, which receives a
// [][]float64 indexed by rank. Non-root ranks receive nil.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	c.w.mu.Lock()
	c.w.collect[c.rank] = data
	c.w.mu.Unlock()
	c.sync()
	var out [][]float64
	if c.rank == root {
		out = make([][]float64, c.w.size)
		for r := 0; r < c.w.size; r++ {
			out[r] = append([]float64(nil), c.w.collect[r]...)
		}
	}
	c.charge(8 * len(data))
	c.sync()
	return out
}

// Allreduce sums buf element-wise across ranks, leaving the result in
// every rank's buf. Each rank sums its partition of the elements, ranks
// in order, into the world's scratch, which all copy out after a sync.
func (c *Comm) Allreduce(buf []float64) {
	w := c.w
	w.mu.Lock()
	w.collect[c.rank] = buf
	if len(w.sum) < len(buf) {
		w.sum = make([]float64, len(buf))
	}
	w.mu.Unlock()
	c.sync()
	sum := w.sum[:len(buf)]
	lo, hi := c.PartitionRange(len(buf))
	for i := lo; i < hi; i++ {
		acc := w.collect[0][i]
		for r := 1; r < w.size; r++ {
			acc += w.collect[r][i]
		}
		sum[i] = acc
	}
	c.charge(8 * len(buf))
	c.sync()
	copy(buf, sum)
	c.sync()
}

// PartitionRange splits [0, n) into one contiguous chunk per rank and
// returns this rank's [lo, hi). Remainder items go to the leading ranks,
// keeping the imbalance at most one.
func (c *Comm) PartitionRange(n int) (lo, hi int) {
	return partitionRange(n, c.rank, c.w.size)
}

// partitionRange splits [0, n) into size chunks for the given rank.
func partitionRange(n, rank, size int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return
}

// cyclicBarrier is a reusable N-party barrier.
type cyclicBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
