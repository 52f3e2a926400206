package minimpi

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRankAndSize(t *testing.T) {
	seen := make([]int32, 8)
	Run(8, CostModel{}, func(c *Comm) {
		atomic.AddInt32(&seen[c.Rank()], 1)
	})
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d ran %d times", r, n)
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after int32
	Run(6, CostModel{}, func(c *Comm) {
		atomic.AddInt32(&before, 1)
		c.sync()
		// After the barrier every rank must observe all 6 increments.
		if atomic.LoadInt32(&before) != 6 {
			t.Errorf("rank %d passed barrier before all arrived", c.Rank())
		}
		atomic.AddInt32(&after, 1)
	})
	if after != 6 {
		t.Fatalf("after = %d", after)
	}
}

func TestGather(t *testing.T) {
	Run(4, CostModel{}, func(c *Comm) {
		out := c.Gather(0, []float64{float64(c.Rank() * 10)})
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				if out[r][0] != float64(r*10) {
					t.Errorf("Gather[%d] = %v", r, out[r])
				}
			}
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	Run(5, CostModel{}, func(c *Comm) {
		buf := []float64{float64(c.Rank()), float64(-c.Rank())}
		c.Allreduce(buf)
		if buf[0] != 10 || buf[1] != -10 {
			t.Errorf("Sum = %v", buf)
		}
	})
}

func TestAllreduceRepeatable(t *testing.T) {
	// Two back-to-back collectives must not interfere.
	Run(3, CostModel{}, func(c *Comm) {
		for iter := 0; iter < 10; iter++ {
			buf := []float64{1}
			c.Allreduce(buf)
			if buf[0] != 3 {
				t.Errorf("iter %d: sum = %v", iter, buf[0])
			}
		}
	})
}

// TestBarrierStressOrdering reuses the cyclic barrier every collective
// synchronises on across many generations under contention: within each iteration every rank's
// pre-barrier increment must be visible to every rank after the barrier,
// and no rank may run ahead a generation.
func TestBarrierStressOrdering(t *testing.T) {
	const ranks, iters = 8, 200
	var phase [iters]int32
	Run(ranks, CostModel{}, func(c *Comm) {
		for it := 0; it < iters; it++ {
			atomic.AddInt32(&phase[it], 1)
			c.sync()
			if got := atomic.LoadInt32(&phase[it]); got != ranks {
				t.Errorf("iter %d: rank %d saw %d/%d arrivals after barrier",
					it, c.Rank(), got, ranks)
				return
			}
			if it+1 < iters {
				if got := atomic.LoadInt32(&phase[it+1]); got != 0 {
					t.Errorf("iter %d: rank %d saw next generation started early", it, c.Rank())
					return
				}
			}
			c.sync()
		}
	})
}

// TestMixedCollectivesUnderContention interleaves gathers and allreduces
// the way the streaming pipeline does (a sketch merge per window, a gather
// of the counts at the end), checking the collectives stay aligned.
func TestMixedCollectivesUnderContention(t *testing.T) {
	const ranks, rounds = 4, 25
	Run(ranks, CostModel{}, func(c *Comm) {
		for r := 0; r < rounds; r++ {
			out := c.Gather(r%ranks, []float64{float64(c.Rank() + r)})
			for src, got := range out {
				if int(got[0]) != src+r {
					t.Errorf("round %d: rank %d gathered %v from %d", r, c.Rank(), got, src)
					return
				}
			}
			buf := []float64{1}
			c.Allreduce(buf)
			if buf[0] != ranks {
				t.Errorf("round %d: allreduce = %v", r, buf[0])
				return
			}
		}
	})
}

func TestPartitionRange(t *testing.T) {
	// 10 items over 4 ranks: 3,3,2,2.
	wants := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for r, w := range wants {
		lo, hi := partitionRange(10, r, 4)
		if lo != w[0] || hi != w[1] {
			t.Fatalf("rank %d: [%d,%d), want %v", r, lo, hi, w)
		}
	}
}

// Property: partition covers [0,n) exactly, in order, with imbalance <= 1.
func TestPartitionPropertyQuick(t *testing.T) {
	f := func(n uint16, size uint8) bool {
		nn := int(n%1000) + 1
		ss := int(size%64) + 1
		prev := 0
		minC, maxC := 1<<30, 0
		for r := 0; r < ss; r++ {
			lo, hi := partitionRange(nn, r, ss)
			if lo != prev || hi < lo {
				return false
			}
			c := hi - lo
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
			prev = hi
		}
		return prev == nn && maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelCharging(t *testing.T) {
	cm := CostModel{Latency: 1e-5, Bandwidth: 1e9}
	w := Run(8, cm, func(c *Comm) {
		buf := make([]float64, 1000)
		c.Allreduce(buf)
	})
	got := w.MaxSimCommSeconds()
	// Internal syncs are uncharged; one allreduce of 8000 bytes over
	// log2(8)=3 hops.
	want := (1e-5 + 8000.0/1e9) * 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sim comm = %v, want %v", got, want)
	}
	// A slower network never makes a collective cheaper, so Fig. 7's knee
	// cannot move to more ranks as latency grows.
	for _, ranks := range []int{2, 3, 8, 512} {
		prev := 0.0
		for _, lat := range []float64{0, 2e-6, 20e-6, 200e-6} {
			c := CostModel{Latency: lat, Bandwidth: 10e9}.Cost(4096, ranks)
			if c < prev {
				t.Fatalf("%d ranks: cost %v at latency %v fell below %v", ranks, c, lat, prev)
			}
			prev = c
		}
	}
}

func TestCostModelSingleRankFree(t *testing.T) {
	cm := CostModel{Latency: 1, Bandwidth: 1}
	w := Run(1, cm, func(c *Comm) {
		buf := []float64{1}
		c.Allreduce(buf)
		c.Gather(0, buf)
	})
	if w.MaxSimCommSeconds() != 0 {
		t.Fatal("single rank should incur no comm cost")
	}
}

func TestParallelSumMatchesSerial(t *testing.T) {
	// Integration check: partition a vector sum across ranks and allreduce.
	n := 10007
	data := make([]float64, n)
	want := 0.0
	for i := range data {
		data[i] = float64(i%13) * 0.5
		want += data[i]
	}
	for _, ranks := range []int{1, 2, 4, 7} {
		var got float64
		Run(ranks, CostModel{}, func(c *Comm) {
			lo, hi := c.PartitionRange(n)
			s := 0.0
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			buf := []float64{s}
			c.Allreduce(buf)
			if c.Rank() == 0 {
				got = buf[0]
			}
		})
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("ranks=%d: sum = %v, want %v", ranks, got, want)
		}
	}
}

// TestAllreduceMatchesSerialSum: at random lengths and rank counts every
// rank gets, bit for bit, the serial sum that adds ranks 0..n−1 in order.
func TestAllreduceMatchesSerialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		ranks, n := 1+rng.Intn(9), rng.Intn(300)
		in := make([][]float64, ranks)
		want := make([]float64, n)
		for r := range in {
			in[r] = make([]float64, n)
			for i := range in[r] {
				in[r][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
				if r == 0 {
					want[i] = in[r][i]
				} else {
					want[i] += in[r][i]
				}
			}
		}
		Run(ranks, CostModel{}, func(c *Comm) {
			buf := append([]float64(nil), in[c.Rank()]...)
			c.Allreduce(buf)
			for i := range buf {
				if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
					t.Errorf("ranks %d, n %d, rank %d: element %d = %v, want %v", ranks, n, c.Rank(), i, buf[i], want[i])
					return
				}
			}
		})
	}
}

// TestAllreduceAllocs: repeat calls at one length sum into the world's
// scratch and allocate nothing.
func TestAllreduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ranks, calls = 4, 50
	Run(ranks, CostModel{}, func(c *Comm) {
		buf := make([]float64, 1024)
		if c.Rank() != 0 {
			for i := 0; i < calls+1; i++ { // AllocsPerRun's warm-up call and its runs
				c.Allreduce(buf)
			}
			return
		}
		if allocs := testing.AllocsPerRun(calls, func() { c.Allreduce(buf) }); allocs != 0 {
			t.Errorf("a repeat Allreduce of 1024 floats on %d ranks: %.1f allocations, want 0", ranks, allocs)
		}
	})
}

func BenchmarkAllreduce8x1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(8, CostModel{}, func(c *Comm) {
			buf := make([]float64, 1024)
			c.Allreduce(buf)
		})
	}
}
