package tensor

import "fmt"

// Matmul kernel tuning. rowGrain batches output rows per ParallelFor chunk;
// blockK × blockJ tiles keep the active slab of b and the dst row segment
// resident in L2 while a row of a streams through. The tiling only reorders
// which (i, j) cells are visited when — for any fixed output cell the terms
// still accumulate over l in ascending order, exactly as the serial
// reference kernel does, so blocked and reference results are bit-identical.
const (
	rowGrain = 8
	blockK   = 64
	blockJ   = 256
)

// MatMul returns a @ b for 2-D tensors a (m×k) and b (k×n). The output of
// New is already zeroed, so the kernel accumulates directly — no redundant
// clearing pass.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	matmulAccum(out.Data, a.Data, b.Data, m, k, n, DefaultPool())
	return out
}

// MatMulAccum computes dst += a @ b — the gradient-accumulation primitive
// that replaces the alloc-then-AddScaled pattern in backward passes.
func MatMulAccum(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkDst2D(dst, m, n, "MatMulAccum")
	matmulAccum(dst.Data, a.Data, b.Data, m, k, n, DefaultPool())
}

// MatMulTransBAccum computes dst += a @ bᵀ for a (m×k) and b (n×k) WITHOUT
// materializing the transpose: it walks both operands row-major (contiguous
// dot products). This is the natural orientation for nn layers whose
// weights are stored [out, in]: y = x @ Wᵀ needs no transpose per forward.
func MatMulTransBAccum(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransB(a, b)
	checkDst2D(dst, m, n, "MatMulTransBAccum")
	matmulTransBAccum(dst.Data, a.Data, b.Data, m, k, n, DefaultPool())
}

// MatMulTransAAccum computes dst += aᵀ @ b for a (m×k) and b (m×n), giving
// dst (k×n) — the dW += dyᵀ·x step of every linear backward, again without
// materializing dyᵀ.
func MatMulTransAAccum(dst, a, b *Tensor) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA needs 2-D tensors, got %v and %v", a.Shape, b.Shape))
	}
	if a.Dim(0) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dims differ: %v vs %v", a.Shape, b.Shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	checkDst2D(dst, k, n, "MatMulTransAAccum")
	matmulTransAAccum(dst.Data, a.Data, b.Data, m, k, n, DefaultPool())
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D tensors, got %v and %v", a.Shape, b.Shape))
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v vs %v", a.Shape, b.Shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

func checkMatMulTransB(a, b *Tensor) (m, k, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB needs 2-D tensors, got %v and %v", a.Shape, b.Shape))
	}
	if a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims differ: %v vs %v", a.Shape, b.Shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(0)
}

func checkDst2D(dst *Tensor, m, n int, op string) {
	if dst.NDim() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// matmulAccum computes dst += a @ b with a cache-blocked ikj kernel,
// parallel over output rows. Accumulation order over l is ascending for
// every output cell — bit-identical to matmulAccumRef.
func matmulAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(m, rowGrain) {
		matmulAccumRows(dst, a, b, k, n, 0, m)
		return
	}
	p.ParallelFor(m, rowGrain, func(i0, i1 int) { matmulAccumRows(dst, a, b, k, n, i0, i1) })
}

func matmulAccumRows(dst, a, b []float64, k, n, i0, i1 int) {
	for jb := 0; jb < n; jb += blockJ {
		j1 := jb + blockJ
		if j1 > n {
			j1 = n
		}
		for lb := 0; lb < k; lb += blockK {
			l1 := lb + blockK
			if l1 > k {
				l1 = k
			}
			for i := i0; i < i1; i++ {
				ar := a[i*k : (i+1)*k]
				dr := dst[i*n+jb : i*n+j1]
				for l := lb; l < l1; l++ {
					av := ar[l]
					if av == 0 {
						continue
					}
					br := b[l*n+jb : l*n+j1]
					for j, bv := range br {
						dr[j] += av * bv
					}
				}
			}
		}
	}
}

// matmulAccumRef is the serial reference: plain ikj, no tiling, no pool.
// The parity tests assert the blocked/parallel kernel matches it bit for
// bit.
func matmulAccumRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for l, av := range ar {
			if av == 0 {
				continue
			}
			br := b[l*n : (l+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// matmulTransBAccum computes dst += a @ bᵀ (b stored n×k). Both operands
// stream contiguously, so no tiling is needed; rows are parallel.
func matmulTransBAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(m, rowGrain) {
		matmulTransBAccumRows(dst, a, b, k, n, 0, m)
		return
	}
	p.ParallelFor(m, rowGrain, func(i0, i1 int) { matmulTransBAccumRows(dst, a, b, k, n, i0, i1) })
}

func matmulTransBAccumRows(dst, a, b []float64, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			s := 0.0
			for l, av := range ar {
				s += av * br[l]
			}
			dr[j] += s
		}
	}
}

// matmulTransBAccumRef is the serial reference for matmulTransBAccum.
func matmulTransBAccumRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			s := 0.0
			for l, av := range ar {
				s += av * br[l]
			}
			dr[j] += s
		}
	}
}

// matmulTransAAccum computes dst += aᵀ @ b (a stored m×k, dst k×n),
// parallel over dst rows (columns of a). For each dst cell the terms
// accumulate over the shared dimension m in ascending order.
func matmulTransAAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(k, rowGrain) {
		matmulTransAAccumRows(dst, a, b, m, k, n, 0, k)
		return
	}
	p.ParallelFor(k, rowGrain, func(i0, i1 int) { matmulTransAAccumRows(dst, a, b, m, k, n, i0, i1) })
}

func matmulTransAAccumRows(dst, a, b []float64, m, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dr := dst[i*n : (i+1)*n]
		for l := 0; l < m; l++ {
			av := a[l*k+i]
			if av == 0 {
				continue
			}
			br := b[l*n : (l+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// matmulTransAAccumRef is the serial reference for matmulTransAAccum.
func matmulTransAAccumRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < k; i++ {
		dr := dst[i*n : (i+1)*n]
		for l := 0; l < m; l++ {
			av := a[l*k+i]
			if av == 0 {
				continue
			}
			br := b[l*n : (l+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// AddRowVecInto computes dst[i,j] = a[i,j] + v[j] for a 2-D a and 1-D v
// (broadcast bias addition), parallel over rows.
func AddRowVecInto(dst, a, v *Tensor) {
	if a.NDim() != 2 || v.NDim() != 1 || a.Dim(1) != v.Dim(0) || !SameShape(dst, a) {
		panic(fmt.Sprintf("tensor: AddRowVec shapes %v, %v, %v incompatible", dst.Shape, a.Shape, v.Shape))
	}
	m, n := a.Dim(0), a.Dim(1)
	ad, vd, dd := a.Data, v.Data, dst.Data
	p := DefaultPool()
	if p.Inline(m, 4*rowGrain) {
		addRowVecRows(dd, ad, vd, n, 0, m)
		return
	}
	p.ParallelFor(m, 4*rowGrain, func(i0, i1 int) { addRowVecRows(dd, ad, vd, n, i0, i1) })
}

func addRowVecRows(dd, ad, vd []float64, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		ar := ad[i*n : (i+1)*n]
		dr := dd[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = ar[j] + vd[j]
		}
	}
}

// SumRowsInto accumulates the column sums of 2-D a into 1-D dst:
// dst[j] += sum_i a[i,j]. Used for bias gradients. Serial: each dst[j] is a
// shared accumulator and column counts are small in practice.
func SumRowsInto(dst, a *Tensor) {
	if a.NDim() != 2 || dst.NDim() != 1 || a.Dim(1) != dst.Dim(0) {
		panic(fmt.Sprintf("tensor: SumRows shapes %v, %v incompatible", dst.Shape, a.Shape))
	}
	m, n := a.Dim(0), a.Dim(1)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}
