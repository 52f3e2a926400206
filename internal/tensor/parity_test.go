package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/tensor/pooltest"
)

// The parity suite asserts the tentpole invariant: every blocked/pooled
// kernel is bit-identical to its serial reference implementation, for sizes
// that exercise partial tiles and multi-chunk ParallelFor decompositions.

var paritySizes = append([][3]int{
	{0, 5, 7}, {1, 1, 1}, {3, 5, 7}, {17, 33, 65}, {64, 64, 64},
	{100, 70, 130}, {257, 61, 300},
	// The shapes a training step spends its multiply-adds on.
	{512, 32, 32}, {448, 32, 4}, {7, 64, 32},
	// Around the longest inner dimension the a·bᵀ assembly takes.
	{67, 64, 33}, {67, 65, 33},
}, append(tailSizes(), stripSizes()...)...)

// tailSizes covers every tail of the 16/8/4/1 column strips (n = 1…9 and
// 15…17) with m and k that each span several chunks at lowFanOut's
// threshold: a·b and a·bᵀ split m, aᵀ·b splits k.
func tailSizes() [][3]int {
	var out [][3]int
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17} {
		out = append(out, [3]int{37, 29, n})
	}
	return out
}

// stripSizes puts n on and either side of every strip boundary and k on
// the edges of the assembly's l loop (none, one, and around 32). m = 67
// gives a·bᵀ chunks of 5 rows at lowFanOut's threshold and a last chunk of
// 2, on either side of dotRows.
func stripSizes() [][3]int {
	var out [][3]int
	for _, n := range []int{7, 8, 15, 16, 17, 24, 31, 32, 33, 48, 64} {
		for _, k := range []int{0, 1, 31, 32, 33} {
			out = append(out, [3]int{67, k, n})
		}
	}
	return out
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

// specialA is randMat with ±0 and subnormals everywhere, and NaNs or ±Infs
// in the rows (byRow) or columns (byCol) whose key(i, l) is 0 or 1 mod 3. Each output cell
// sums over one row of a (a·b, a·bᵀ) or one column (aᵀ·b), so keying by it
// lets a cell meet NaNs of one payload only: a's own, or the ones ±Inf
// makes against a zero or an opposite Inf.
func specialA(rng *rand.Rand, m, k int, key func(i, l int) int) *Tensor {
	x := randMat(rng, m, k)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			v := &x.Data[i*k+l]
			switch r := rng.Intn(8); {
			case r == 0:
				*v = math.Copysign(0, -1)
			case r == 1:
				*v = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20)) * float64(1-2*rng.Intn(2))
			case r == 2 && key(i, l)%3 == 0:
				*v = math.NaN()
			case r == 2 && key(i, l)%3 == 1:
				*v = math.Inf(1 - 2*rng.Intn(2))
			}
		}
	}
	return x
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

// eachPath runs f with the Go strips, then, where the CPU has AVX2, with
// the assembly strips, naming the path it runs.
func eachPath(f func(path string)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	useAVX2 = false
	f("go")
	if have {
		useAVX2 = true
		f("avx2")
	}
}

// matchesRef runs kernel on copies of dst, once per path, and ref on
// another copy, a being m×k and dst having n columns, and requires the
// same bits.
func matchesRef(t *testing.T, name string, kernel func(dst, a, b *Tensor), ref func(dst, a, b []float64, m, k, n int), a, b, dst *Tensor) {
	t.Helper()
	want := dst.Clone()
	ref(want.Data, a.Data, b.Data, a.Dim(0), a.Dim(1), dst.Dim(1))
	eachPath(func(path string) {
		got := dst.Clone()
		kernel(got, a, b)
		bitsEqual(t, fmt.Sprintf("%s %v×%v (%s)", name, a.Shape, b.Shape, path), got.Data, want.Data)
	})
}

func byRow(i, _ int) int { return i }
func byCol(_, l int) int { return l }

// The three BitIdentical tests run every paritySizes shape on both paths
// with ±0, subnormals, NaN and ±Inf in a (specialA) and −0 in dst.

func TestMatMulBitIdenticalToRef(t *testing.T) {
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(7))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := specialA(rng, m, k, byRow), randMat(rng, k, n)
		want := make([]float64, m*n)
		matmulAccumRef(want, a.Data, b.Data, m, k, n)
		eachPath(func(path string) { bitsEqual(t, "MatMul "+path, MatMul(a, b).Data, want) })

		// Accum on a non-zero destination.
		matchesRef(t, "MatMulAccum", MatMulAccum, matmulAccumRef, a, b, negZero(rng, m, n))
	}
}

func TestMatMulTransBBitIdenticalToRef(t *testing.T) {
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(8))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		matchesRef(t, "MatMulTransBAccum", MatMulTransBAccum, matmulTransBAccumRef, specialA(rng, m, k, byRow), randMat(rng, n, k), negZero(rng, m, n))
	}
}

func TestMatMulTransABitIdenticalToRef(t *testing.T) {
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(9))
	for _, sz := range paritySizes {
		m, k, n := sz[0], sz[1], sz[2]
		matchesRef(t, "MatMulTransAAccum", MatMulTransAAccum, matmulTransAAccumRef, specialA(rng, m, k, byCol), randMat(rng, m, n), negZero(rng, k, n))
	}
}

// negZero is randMat with half its values −0.
func negZero(rng *rand.Rand, m, n int) *Tensor {
	x := randMat(rng, m, n)
	for i := range x.Data {
		if rng.Intn(2) == 0 {
			x.Data[i] = math.Copysign(0, -1)
		}
	}
	return x
}

// TestMatMulSpecialValuesBitIdenticalToRef pins the zero skip: a zero in a
// (of either sign) facing ±Inf or NaN in b contributes nothing to a·b and
// aᵀ·b (0·Inf would be NaN), and a cell that every term skips keeps a −0.
// a·bᵀ skips nothing, so there 0·Inf is NaN on both sides. Which payload
// survives when two different NaNs meet in an add is the hardware's choice
// (x86 keeps the first operand's, and a register-held sum is the other
// operand of the reference's add), so each output column meets one kind of
// NaN only: the ones ±Inf make, or b's own.
func TestMatMulSpecialValuesBitIdenticalToRef(t *testing.T) {
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(15))
	// special fills b with ±Inf where output column col(i, j) is even and
	// NaN where it is odd.
	special := func(m, n int, col func(i, j int) int) *Tensor {
		x := randMat(rng, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				switch v := &x.Data[i*n+j]; {
				case rng.Intn(3) > 0:
				case col(i, j)%2 == 1:
					*v = math.NaN()
				default:
					*v = math.Inf(1 - 2*rng.Intn(2))
				}
			}
		}
		return x
	}
	sparse := func(m, n int) *Tensor {
		x := randMat(rng, m, n)
		for i := range x.Data {
			switch rng.Intn(4) {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = math.Copysign(0, -1)
			}
		}
		// A row and a column of zeros leave whole cells untouched.
		for l := 0; l < n; l++ {
			x.Data[l] = 0
		}
		for i := 0; i < m; i++ {
			x.Data[i*n] = 0
		}
		return x
	}
	// n = 29 runs a 16-cell strip, then 8, 4 and 1 on either path; m = 67
	// splits into chunks that take the a·bᵀ assembly.
	const m, k, n = 67, 29, 29
	a := sparse(m, k)
	matchesRef(t, "MatMulAccum", MatMulAccum, matmulAccumRef, a, special(k, n, byCol), negZero(rng, m, n))
	matchesRef(t, "MatMulTransBAccum", MatMulTransBAccum, matmulTransBAccumRef, a, special(n, k, byRow), negZero(rng, m, n))
	matchesRef(t, "MatMulTransAAccum", MatMulTransAAccum, matmulTransAAccumRef, sparse(m, k), special(m, n, byCol), negZero(rng, k, n))
}

// FuzzMatMulParity checks all three kernels on both paths against their
// serial references, bit for bit, on shapes up to 70 in each dimension
// (most span several chunks at lowFanOut's threshold, so its 4-worker pool
// splits them, and those must reach the pool) with a chosen share of exact
// zeros in a.
func FuzzMatMulParity(f *testing.F) {
	f.Add(uint8(37), uint8(29), uint8(13), uint8(64), int64(1))
	f.Add(uint8(70), uint8(1), uint8(70), uint8(0), int64(2))
	f.Add(uint8(9), uint8(70), uint8(17), uint8(255), int64(3))
	f.Fuzz(func(t *testing.T, mb, kb, nb, zeroShare uint8, seed int64) {
		m, k, n := int(mb)%70+1, int(kb)%70+1, int(nb)%70+1
		lowFanOut(t)
		if chunks(m, m*k*n) > 1 || chunks(k, m*k*n) > 1 {
			defer pooltest.FannedOut(t, DefaultPool)()
		}
		rng := rand.New(rand.NewSource(seed))
		mat := func(r, c int, zeros bool) *Tensor {
			x := randMat(rng, r, c)
			if zeros {
				for i := range x.Data {
					if rng.Intn(256) < int(zeroShare) {
						x.Data[i] = 0
					}
				}
			}
			return x
		}
		matchesRef(t, "MatMulAccum", MatMulAccum, matmulAccumRef, mat(m, k, true), mat(k, n, false), mat(m, n, false))
		matchesRef(t, "MatMulTransBAccum", MatMulTransBAccum, matmulTransBAccumRef, mat(m, k, true), mat(n, k, false), mat(m, n, false))
		matchesRef(t, "MatMulTransAAccum", MatMulTransAAccum, matmulTransAAccumRef, mat(m, k, true), mat(m, n, false), mat(k, n, false))
	})
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

// sumChunk is chunkedSum's partial length: it sets the reduction's
// summation order, so it is part of its result, not a fan-out choice.
const sumChunk = 4096

// chunkedSum reduces f over [0, n) with fixed sumChunk chunks: each
// chunk's partial is accumulated left-to-right, partials are combined in
// chunk order. The decomposition depends only on n, so the result is
// bit-identical with or without a pool (see chunkedSumRef).
func chunkedSum(n int, p *Pool, f func(lo, hi int) float64) float64 {
	if n == 0 {
		return 0
	}
	chunks := (n + sumChunk - 1) / sumChunk
	if chunks == 1 {
		return f(0, n)
	}
	partials := make([]float64, chunks)
	p.ParallelFor(chunks, n, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			lo := c * sumChunk
			hi := lo + sumChunk
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
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(12))
	n := 12305 // multi-chunk with a partial tail
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
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, sumChunk - 1, sumChunk, 5*sumChunk + 3} {
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
	lowFanOut(t)
	defer pooltest.FannedOut(t, DefaultPool)()
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

// lowFanOut lowers fanOutWork to 64 until tb ends, so that shapes of a few
// hundred multiply-adds already split: most parity shapes sit far below
// the production threshold. Benchmarks keep the production rule.
func lowFanOut(tb testing.TB) {
	w := fanOutWork
	fanOutWork = 64
	tb.Cleanup(func() { fanOutWork = w })
}
