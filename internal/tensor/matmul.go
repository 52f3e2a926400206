package tensor

import "fmt"

// The kernels are register-tiled: each holds a strip of output cells (or a
// group of dot products) in registers for the whole inner loop and stores
// it once. With AVX2 most strips run in matmul_amd64.s, one cell per YMM
// lane. Every cell still takes exactly its reference's adds in its
// reference's order — l ascending, multiply and add rounded apart, a zero
// in a skipped where the reference skips it — so each kernel on either
// path is bit for bit its serial *Ref (up to which payload survives when
// two NaNs meet in one add), and the pool splits rows by the call's
// multiply-adds alone, so serial and pooled runs agree too.

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

// matmulAccum computes dst += a @ b, parallel over output rows.
func matmulAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(m, m*k*n) {
		accumRows(dst, a, b, k, n, k, 1, 0, m)
		return
	}
	p.ParallelFor(m, m*k*n, func(i0, i1 int) { accumRows(dst, a, b, k, n, k, 1, i0, i1) })
}

// accumRows adds Σ_l a(i,l)·b[l,:] to dst[i,:] for i in [i0, i1), l
// ascending over [0, inner), skipping a zero a(i,l), where a(i,l) =
// a[i*aRow+l*aStep]: (k, 1) reads a row-major for a·b, (1, k) reads it
// column-major for aᵀ·b. Each dst row is walked in strips of 16, 8 and 4
// cells (AVX2) or 8 and 4 (Go), then 1, held in registers across the whole
// l loop.
func accumRows(dst, a, b []float64, inner, n, aRow, aStep, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dr := dst[i*n : (i+1)*n]
		j := 0
		if useAVX2 && inner > 0 {
			// The assembly checks no bounds: index the last a and b it reads.
			ai, bl := i*aRow, (inner-1)*n
			_ = a[ai+(inner-1)*aStep]
			for w := 16; w >= 4; w /= 2 {
				for ; j+w <= n; j += w {
					_ = b[bl+j+w-1]
					axpy(&dr[j], &a[ai], &b[j], inner, aStep, n, w)
				}
			}
		}
		for ; j+8 <= n; j += 8 {
			d := dr[j : j+8 : j+8]
			c0, c1, c2, c3, c4, c5, c6, c7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
			for l, ai := 0, i*aRow; l < inner; l, ai = l+1, ai+aStep {
				av := a[ai]
				if av == 0 {
					continue
				}
				br := b[l*n+j : l*n+j+8 : l*n+j+8]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
				c4 += av * br[4]
				c5 += av * br[5]
				c6 += av * br[6]
				c7 += av * br[7]
			}
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
		for ; j+4 <= n; j += 4 {
			d := dr[j : j+4 : j+4]
			c0, c1, c2, c3 := d[0], d[1], d[2], d[3]
			for l, ai := 0, i*aRow; l < inner; l, ai = l+1, ai+aStep {
				av := a[ai]
				if av == 0 {
					continue
				}
				br := b[l*n+j : l*n+j+4 : l*n+j+4]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
			}
			d[0], d[1], d[2], d[3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			c := dr[j]
			for l, ai := 0, i*aRow; l < inner; l, ai = l+1, ai+aStep {
				if av := a[ai]; av != 0 {
					c += av * b[l*n+j]
				}
			}
			dr[j] = c
		}
	}
}

// matmulAccumRef is the serial reference: plain ikj, no tiling, no pool.
// The parity tests assert the tiled/parallel kernel matches it bit for
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

// matmulTransBAccum computes dst += a @ bᵀ (b stored n×k), parallel over
// rows; both operands are read row-major.
func matmulTransBAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(m, m*k*n) {
		transBRows(dst, a, b, k, n, 0, m)
		return
	}
	p.ParallelFor(m, m*k*n, func(i0, i1 int) { transBRows(dst, a, b, k, n, i0, i1) })
}

// The a·bᵀ assembly runs when k ≤ dotK (16 columns of b transposed onto
// the stack take 8 KiB) on at least dotRows rows: below that, zeroing and
// filling the strip costs more than it saves (1.4 against 0.5 µs, 1×32×32).
const dotK, dotRows = 64, 4

// transBRows computes dot products that each start from 0, add over l
// ascending and are then added to their cell, as matmulTransBAccumRef
// does: with AVX2 every row of a against 16 transposed rows of b at a
// time, then four dot products at a time, a row of a against 4 rows of b.
func transBRows(dst, a, b []float64, k, n, i0, i1 int) {
	j0 := 0
	if useAVX2 && k > 0 && k <= dotK && i1-i0 >= dotRows {
		var bt [16 * dotK]float64
		for ; j0+16 <= n; j0 += 16 {
			for c := 0; c < 16; c++ {
				for l, v := range b[(j0+c)*k : (j0+c+1)*k] {
					bt[l*16+c] = v
				}
			}
			for i := i0; i < i1; i++ {
				// The slices check the bounds the assembly does not.
				d, ar := dst[i*n+j0:i*n+j0+16], a[i*k:(i+1)*k]
				dot16(&d[0], &ar[0], &bt[0], k)
			}
		}
	}
	for i := i0; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k][:len(ar)]
			b1 := b[(j+1)*k : (j+2)*k][:len(ar)]
			b2 := b[(j+2)*k : (j+3)*k][:len(ar)]
			b3 := b[(j+3)*k : (j+4)*k][:len(ar)]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for l, av := range ar {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			dr[j] += s0
			dr[j+1] += s1
			dr[j+2] += s2
			dr[j+3] += s3
		}
		for ; j < n; j++ {
			br := b[j*k : (j+1)*k][:len(ar)]
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
// parallel over dst rows (columns of a).
func matmulTransAAccum(dst, a, b []float64, m, k, n int, p *Pool) {
	if p.Inline(k, m*k*n) {
		accumRows(dst, a, b, m, n, 1, k, 0, k)
		return
	}
	p.ParallelFor(k, m*k*n, func(i0, i1 int) { accumRows(dst, a, b, m, n, 1, k, i0, i1) })
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
	if p.Inline(m, m*n) {
		addRowVecRows(dd, ad, vd, n, 0, m)
		return
	}
	p.ParallelFor(m, m*n, func(i0, i1 int) { addRowVecRows(dd, ad, vd, n, i0, i1) })
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
