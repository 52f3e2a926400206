package tensor

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// The parity suite asserts the tentpole invariant: every blocked/pooled
// kernel is bit-identical to its serial reference implementation, for sizes
// that exercise partial tiles and multi-chunk ParallelFor decompositions.

var paritySizes = [][3]int{
	{1, 1, 1}, {3, 5, 7}, {17, 33, 65}, {64, 64, 64},
	{100, 70, 130}, {257, 61, 300},
}

func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data {
		// Mix magnitudes and exact zeros so the av==0 skip path and
		// non-associativity-sensitive sums are both exercised.
		switch rng.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = rng.NormFloat64() * 1e8
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: %v (bits %x) vs %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestMatMulBitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		got := MatMul(a, b)
		want := make([]float64, m*n)
		matmulAccumRef(want, a.Data, b.Data, m, k, n)
		bitsEqual(t, "MatMul", got.Data, want)

		// Accum on a non-zero destination.
		dst := randMat(rng, m, n)
		ref := dst.Clone()
		MatMulAccum(dst, a, b)
		matmulAccumRef(ref.Data, a.Data, b.Data, m, k, n)
		bitsEqual(t, "MatMulAccum", dst.Data, ref.Data)
	}
}

func TestMatMulTransBBitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, bT := randMat(rng, m, k), randMat(rng, n, k)
		dst := randMat(rng, m, n)
		ref := dst.Clone()
		MatMulTransBAccum(dst, a, bT)
		matmulTransBAccumRef(ref.Data, a.Data, bT.Data, m, k, n)
		bitsEqual(t, "MatMulTransBAccum", dst.Data, ref.Data)
	}
}

func TestMatMulTransABitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randMat(rng, m, k), randMat(rng, m, n)
		dst := randMat(rng, k, n)
		ref := dst.Clone()
		MatMulTransAAccum(dst, a, b)
		matmulTransAAccumRef(ref.Data, a.Data, b.Data, m, k, n)
		bitsEqual(t, "MatMulTransAAccum", dst.Data, ref.Data)
	}
}

// TestMatMulTransBMatchesTransposedMatMul checks the transpose-free
// orientation against the materialized-transpose formulation.
func TestMatMulTransBMatchesTransposedMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, w := randMat(rng, 33, 21), randMat(rng, 47, 21)
	got := New(33, 47)
	MatMulTransBAccum(got, a, w)
	want := MatMul(a, transposeRef(w))
	bitsEqual(t, "TransB vs Transpose+MatMul", got.Data, want.Data)
}

func TestMatMulTransAMatchesTransposedMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dy, x := randMat(rng, 29, 13), randMat(rng, 29, 37)
	dst := New(13, 37)
	MatMulTransAAccum(dst, dy, x)
	want := MatMul(transposeRef(dy), x)
	bitsEqual(t, "TransA vs Transpose+MatMul", dst.Data, want.Data)
}

// The chunked reduction below has no caller in the program since the layers
// moved to the Into/Accum kernels (losses and norms are summed in place, in
// element order); it is parked beside the parity tests that pin its
// decomposition until a kernel reduces through it again or it is deleted
// with them.

// chunkedSum reduces f over [0, n) with fixed ewiseGrain chunks: each
// chunk's partial is accumulated left-to-right, partials are combined in
// chunk order. The decomposition depends only on n, so the result is
// bit-identical with or without a pool (see chunkedSumRef).
func chunkedSum(n int, p *Pool, f func(lo, hi int) float64) float64 {
	if n == 0 {
		return 0
	}
	chunks := (n + ewiseGrain - 1) / ewiseGrain
	if chunks == 1 {
		return f(0, n)
	}
	partials := make([]float64, chunks)
	p.ParallelFor(chunks, 1, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			lo := c * ewiseGrain
			hi := lo + ewiseGrain
			if hi > n {
				hi = n
			}
			partials[c] = f(lo, hi)
		}
	})
	s := 0.0
	for _, v := range partials {
		s += v
	}
	return s
}

// chunkedSumRef is the serial reference for chunkedSum: identical chunk
// decomposition, no pool. Parity tests assert both agree bit for bit.
func chunkedSumRef(n int, f func(lo, hi int) float64) float64 {
	return chunkedSum(n, nil, f)
}

// Sum returns the sum of all elements (chunked deterministic reduction).
func (t *Tensor) Sum() float64 {
	d := t.Data
	return chunkedSum(len(d), DefaultPool(), func(lo, hi int) float64 {
		s := 0.0
		for _, v := range d[lo:hi] {
			s += v
		}
		return s
	})
}

func TestElementwiseBitIdenticalSerialVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 3*ewiseGrain + 17 // multi-chunk with a partial tail
	a := Randn(rng, 1, n)
	b := Randn(rng, 1, n)

	run := func() []float64 {
		d := a.Clone()
		AddInto(d, d, b)
		MulInto(d, d, b)
		d.Scale(1.0 / 3.0)
		d.AddScaled(0.5, b)
		d.Apply(math.Tanh)
		return d.Data
	}
	SetParallel(false)
	want := run()
	SetParallel(true)
	got := run()
	bitsEqual(t, "elementwise serial vs parallel", got, want)
}

func TestReductionsBitIdenticalSerialVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, ewiseGrain - 1, ewiseGrain, 5*ewiseGrain + 3} {
		a := Randn(rng, 1e6, n)
		sumP := a.Sum()
		SetParallel(false)
		sumS := a.Sum()
		SetParallel(true)
		if math.Float64bits(sumP) != math.Float64bits(sumS) {
			t.Fatalf("Sum(n=%d): %v vs %v", n, sumP, sumS)
		}
		// And against the explicit chunked serial reference.
		d := a.Data
		ref := chunkedSumRef(n, func(lo, hi int) float64 {
			s := 0.0
			for _, v := range d[lo:hi] {
				s += v
			}
			return s
		})
		if math.Float64bits(sumP) != math.Float64bits(ref) {
			t.Fatalf("Sum(n=%d) vs chunkedSumRef: %v vs %v", n, sumP, ref)
		}
	}
}

func TestMatVecBitIdenticalSerialVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 301, 53)
	x := Randn(rng, 1, 53, 1) // a vector is the n = 1 right-hand side
	got := MatMul(a, x)
	SetParallel(false)
	want := MatMul(a, x)
	SetParallel(true)
	bitsEqual(t, "MatMul with a column vector", got.Data, want.Data)
}

// TestMain forces a real multi-worker pool for the whole package test run,
// so the parity assertions exercise genuine cross-goroutine scheduling even
// on single-core machines (where DefaultPool would otherwise be nil).
func TestMain(m *testing.M) {
	SetWorkers(4)
	os.Exit(m.Run())
}
