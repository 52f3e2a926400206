// Golden input for detparallel: nondeterminism inside ParallelFor
// kernel bodies.
package a

import (
	"math/rand"
	"time"

	"repro/internal/tensor"
)

func deterministic(p *tensor.Pool, xs []float64) {
	p.ParallelFor(len(xs), len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

func nondeterministic(p *tensor.Pool, xs []float64, m map[string]float64) {
	p.ParallelFor(len(xs), len(xs), func(lo, hi int) {
		start := time.Now()  // want `time.Now inside a ParallelFor body`
		_ = rand.Float64()   // want `rand.Float64 inside a ParallelFor body`
		for k := range m {   // want `map iteration order inside a ParallelFor body`
			_ = k
		}
		nested := func() {
			_ = time.Since(start) // want `time.Since inside a ParallelFor body`
		}
		nested()
	})
}

func outsideKernel(m map[string]float64) {
	_ = time.Now()
	_ = rand.Float64()
	for k := range m {
		_ = k
	}
}

func annotated(p *tensor.Pool, xs []float64) {
	p.ParallelFor(len(xs), len(xs), func(lo, hi int) {
		//sicklevet:ignore detparallel benchmark harness timing, not numerics
		_ = time.Now()
	})
}
