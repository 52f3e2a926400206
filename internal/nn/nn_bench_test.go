package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Forward/backward micro-benchmarks with allocation tracking. Every
// iteration resets the workspace the way a model's Forward does, so the
// steady state reports the closures of multi-chunk kernels and nothing
// else.

func BenchmarkLinearForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 128, 128)
	x := tensor.Randn(rng, 1, 64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		l.Forward(ws, x)
	}
}

func BenchmarkLinearBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 128, 128)
	x := tensor.Randn(rng, 1, 64, 128)
	dy := tensor.Randn(rng, 1, 64, 128)
	l.Forward(ws, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		l.Backward(ws, dy)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(rng, 32, 64)
	x := tensor.Randn(rng, 1, 8, 10, 32)
	dy := tensor.Randn(rng, 1, 8, 10, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		l.Forward(ws, x)
		l.Backward(ws, dy)
	}
}

func BenchmarkAttentionForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMultiHeadAttention(rng, 64, 4)
	x := tensor.Randn(rng, 1, 4, 16, 64)
	dy := tensor.Randn(rng, 1, 4, 16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		m.Forward(ws, x)
		m.Backward(ws, dy)
	}
}

func BenchmarkConv3DForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv3D(rng, 4, 8, 2)
	x := tensor.Randn(rng, 1, 4, 4, 16, 16, 16)
	c.Forward(ws, x)
	dy := tensor.Randn(rng, 1, 4, 8, 8, 8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		c.Forward(ws, x)
		c.Backward(ws, dy)
	}
}
