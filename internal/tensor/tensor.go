// Package tensor provides dense float64 tensors with shape metadata and the
// numerical kernels (element-wise ops, matrix multiplication, row sums)
// that the neural-network, solver, and sampling layers of SICKLE-Go are
// built on.
//
// Tensors are row-major and backed by a flat []float64, so they can be
// sliced, reshaped, and passed to kernels without copying.
//
// The package doubles as the repository's kernel engine:
//
//   - Pool is a persistent GOMAXPROCS-sized worker pool with a
//     deterministic ParallelFor; every kernel here (and the cfd2d/cfd3d
//     solver steps, spectral transforms, and clustering built on it) is
//     bit-identical serial or parallel, asserted against unexported *Ref
//     serial kernels in the parity tests.
//   - The matmul family is the register-tiled MatMul and the Accum
//     variants (MatMulAccum, and the transpose-free MatMulTransBAccum /
//     MatMulTransAAccum orientations) that nn layers accumulate into, so no
//     transpose and no temporary is materialized per forward/backward.
//   - Workspace is a step-scoped tape of tensors: the i-th request after
//     a Reset reuses the i-th slot's storage and header, so a train step
//     or a forward pass that asks for the same temporaries every time
//     allocates nothing once the tape is filled. What it hands out is
//     valid until the next Reset — see the lifetime rule on Workspace.
package tensor

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The data is not
// copied; the caller must not alias it unless that is intended.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Rand returns a tensor with entries drawn uniformly from [-scale, scale).
func Rand(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// Randn returns a tensor with entries drawn from N(0, std²).
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func assertSameLen(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(a.Data), len(b.Data)))
	}
}

// The element-wise kernels below share one shape: a range function that
// does the work on [lo, hi), called directly when the pool would run it
// inline anyway (see Pool.Inline) and through ParallelFor otherwise; their
// work is their element count.

// AddInto computes dst = a + b element-wise.
func AddInto(dst, a, b *Tensor) {
	assertSameLen(a, b, "add")
	assertSameLen(dst, a, "add")
	ad, bd, dd := a.Data, b.Data, dst.Data
	p := DefaultPool()
	if p.Inline(len(dd), len(dd)) {
		addRange(dd, ad, bd, 0, len(dd))
		return
	}
	p.ParallelFor(len(dd), len(dd), func(lo, hi int) { addRange(dd, ad, bd, lo, hi) })
}

func addRange(dd, ad, bd []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] + bd[i]
	}
}

// MulInto computes dst = a * b element-wise (Hadamard product).
func MulInto(dst, a, b *Tensor) {
	assertSameLen(a, b, "mul")
	assertSameLen(dst, a, "mul")
	ad, bd, dd := a.Data, b.Data, dst.Data
	p := DefaultPool()
	if p.Inline(len(dd), len(dd)) {
		mulRange(dd, ad, bd, 0, len(dd))
		return
	}
	p.ParallelFor(len(dd), len(dd), func(lo, hi int) { mulRange(dd, ad, bd, lo, hi) })
}

func mulRange(dd, ad, bd []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] * bd[i]
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) {
	d := t.Data
	p := DefaultPool()
	if p.Inline(len(d), len(d)) {
		scaleRange(d, s, 0, len(d))
		return
	}
	p.ParallelFor(len(d), len(d), func(lo, hi int) { scaleRange(d, s, lo, hi) })
}

func scaleRange(d []float64, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] *= s
	}
}

// AddScaled computes t += s*u in place (axpy).
func (t *Tensor) AddScaled(s float64, u *Tensor) {
	assertSameLen(t, u, "axpy")
	d, ud := t.Data, u.Data
	p := DefaultPool()
	if p.Inline(len(d), len(d)) {
		axpyRange(d, s, ud, 0, len(d))
		return
	}
	p.ParallelFor(len(d), len(d), func(lo, hi int) { axpyRange(d, s, ud, lo, hi) })
}

func axpyRange(d []float64, s float64, ud []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] += s * ud[i]
	}
}

// Apply replaces each element x with f(x). f must be pure: it may run
// concurrently across chunks.
func (t *Tensor) Apply(f func(float64) float64) {
	ApplyInto(t, t, f)
}

// ApplyInto computes dst[i] = f(src[i]); dst may be src. f must be pure: it
// may run concurrently across chunks.
func ApplyInto(dst, src *Tensor, f func(float64) float64) {
	assertSameLen(dst, src, "apply")
	dd, sd := dst.Data, src.Data
	p := DefaultPool()
	if p.Inline(len(dd), len(dd)) {
		applyRange(dd, sd, f, 0, len(dd))
		return
	}
	p.ParallelFor(len(dd), len(dd), func(lo, hi int) { applyRange(dd, sd, f, lo, hi) })
}

func applyRange(dd, sd []float64, f func(float64) float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = f(sd[i])
	}
}
