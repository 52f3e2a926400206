package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks. ReportAllocs is on everywhere: the Into/Accum
// kernels must be zero-alloc, and MatMul's only allocation is its output.
// The Accum benchmarks accumulate into one dst: the arithmetic is the same
// whatever dst holds. The pooled benchmarks split as a program does; the
// LedgerShapes split/ sweep sets fanOutWork per case.
// Run `go test -bench 'MatMul|Ewise|Reduce' -benchmem ./internal/tensor/`.

func benchMats(m, k, n int) (*Tensor, *Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	return Randn(rng, 1, m, k), Randn(rng, 1, k, n), New(m, n)
}

func BenchmarkMatMulAccum(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			x, y, dst := benchMats(size, size, size)
			flops := 2 * int64(size) * int64(size) * int64(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulAccum(dst, x, y)
			}
			b.SetBytes(flops) // reported as "bytes/op" == flops/op
		})
	}
}

func BenchmarkMatMulAccumSerial(b *testing.B) {
	SetParallel(false)
	defer SetParallel(true)
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			x, y, dst := benchMats(size, size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulAccum(dst, x, y)
			}
		})
	}
}

func BenchmarkMatMulTransBAccum(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, 1, size, size)
			w := Randn(rng, 1, size, size)
			dst := New(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBAccum(dst, x, w)
			}
		})
	}
}

// BenchmarkMatMulLedgerShapes runs the three variants serially at the
// shapes that dominate a training step (m×k×n; the row count 512 is one
// batch of cube rows), reporting GFLOP/s. Its split/ half is the sweep
// behind fanOutWork: a·b at m×32×32 for m = 8…512 on the default pool, cut
// into 1, 2, 4, 8 and 16 chunks (by setting fanOutWork to work/chunks).
func BenchmarkMatMulLedgerShapes(b *testing.B) {
	SetParallel(false)
	defer SetParallel(true)
	for _, sz := range [][3]int{{512, 32, 32}, {512, 32, 4}} {
		m, k, n := sz[0], sz[1], sz[2]
		rng := rand.New(rand.NewSource(1))
		x := Randn(rng, 1, m, k)
		for _, v := range []struct {
			name   string
			y, dst *Tensor
			kernel func(dst, a, b *Tensor)
		}{
			{"ab", Randn(rng, 1, k, n), New(m, n), MatMulAccum},
			{"abT", Randn(rng, 1, n, k), New(m, n), MatMulTransBAccum},
			{"aTb", Randn(rng, 1, m, n), New(k, n), MatMulTransAAccum},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", v.name, m, k, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.kernel(v.dst, x, v.y)
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
	SetParallel(true)
	defer func(w int) { fanOutWork = w }(fanOutWork)
	for m := 8; m <= 512; m *= 2 {
		x, y, dst := benchMats(m, 32, 32)
		work := m * 32 * 32
		for c := 1; c <= min(MaxChunks, m); c *= 2 {
			b.Run(fmt.Sprintf("split/%dx32x32/chunks%d", m, c), func(b *testing.B) {
				fanOutWork = max(work/c, 1)
				if c == 1 {
					fanOutWork = work + 1
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulAccum(dst, x, y)
				}
				b.ReportMetric(2*float64(work)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkTransposeThenMatMul measures the pattern the nn layers used
// before this engine existed (materialize Wᵀ every call), for comparison
// with BenchmarkMatMulTransBAccum.
func BenchmarkTransposeThenMatMul(b *testing.B) {
	size := 128
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, size, size)
	w := Randn(rng, 1, size, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, transposeRef(w))
	}
}

func BenchmarkEwiseAddInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 1<<16)
	y := Randn(rng, 1, 1<<16)
	dst := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddInto(dst, x, y)
	}
}

func BenchmarkReduceSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s = x.Sum()
	}
	_ = s
}

// BenchmarkParallelForOverhead prices a fan-out on its own: an empty body
// over 1, 2, 4, 8 and 16 chunks on the default pool, so chunks1 is the
// inline call and the rest are the closure and the hand-off.
func BenchmarkParallelForOverhead(b *testing.B) {
	for c := 1; c <= MaxChunks; c *= 2 {
		b.Run(fmt.Sprintf("chunks%d", c), func(b *testing.B) {
			p := DefaultPool()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ParallelFor(1<<14, c*fanOutWork, func(lo, hi int) {})
			}
		})
	}
}
