package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor/pooltest"
)

// Multi-index element access, which only the tests need: kernels and
// layers index Data directly.

func (t *Tensor) at(idx ...int) float64 { return t.Data[t.offset(idx)] }

func (t *Tensor) set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// add is the allocating form of AddInto.
func add(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	AddInto(out, a, b)
	return out
}

// transposeRef materializes the transpose of a 2-D tensor: the reference
// the transpose-free TransA/TransB matmul orientations are checked against.
func transposeRef(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			out.Data[j*m+i] = v
		}
	}
	return out
}

func TestNewZeroInitialized(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 {
		t.Fatalf("Len = %d, want 12", a.Len())
	}
	for i, v := range a.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched shape")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4)
	a.set(7.5, 1, 2, 3)
	if got := a.at(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: offset = (1*3+2)*4+3 = 23.
	if a.Data[23] != 7.5 {
		t.Fatalf("row-major offset wrong: Data[23]=%v", a.Data[23])
	}
}

// reshape returns a view of t's data with a new shape. One dimension may be
// -1, in which case it is inferred. No program code reshapes a tensor this
// way (a workspace View is how kernels and layers do), so it lives beside
// its tests.
func reshape(t *Tensor, shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, s := range shape {
		if s == -1 {
			if infer != -1 {
				panic("tensor: at most one -1 dimension allowed in reshape")
			}
			infer = i
		} else {
			n *= s
		}
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension: %d elements into shape %v", len(t.Data), shape))
		}
		out[infer] = len(t.Data) / n
		n *= out[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: out, Data: t.Data}
}

func TestReshapeInfer(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := reshape(a, 3, -1)
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("Reshape got %v, want [3 2]", b.Shape)
	}
	b.Data[0] = 99
	if a.Data[0] != 99 {
		t.Fatal("Reshape must be a view, not a copy")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reshape(New(2, 3), 4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := add(a, b).Data; got[0] != 11 || got[2] != 33 {
		t.Fatalf("AddInto = %v", got)
	}
	prod := New(3)
	MulInto(prod, a, b)
	if prod.Data[2] != 90 {
		t.Fatalf("MulInto = %v", prod.Data)
	}
	c := a.Clone()
	c.AddScaled(2, b)
	if c.Data[0] != 21 {
		t.Fatalf("AddScaled = %v", c.Data)
	}
	if a.Data[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{-1, 4, 2, -7}, 4)
	if a.Sum() != -2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if got := New(0).Sum(); got != 0 {
		t.Fatalf("Sum of an empty tensor = %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Rand(rng, 1, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-14 {
			t.Fatalf("A@I != A at %d", i)
		}
	}
}

// TestMatMulParallelMatchesSerial exercises the pooled path against a
// naive triple loop.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	defer pooltest.FannedOut(t, DefaultPool)()
	rng := rand.New(rand.NewSource(2))
	m, k, n := 97, 33, 41
	a := Rand(rng, 1, m, k)
	b := Rand(rng, 1, k, n)
	got := MatMul(a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a.at(i, l) * b.at(l, j)
			}
			if math.Abs(got.at(i, j)-s) > 1e-10 {
				t.Fatalf("MatMul(%d,%d) = %v, want %v", i, j, got.at(i, j), s)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transposeRef(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape %v", at.Shape)
	}
	if at.at(2, 1) != a.at(1, 2) {
		t.Fatal("Transpose values wrong")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float64{5, 6}, 2, 1) // a vector is the n = 1 right-hand side
	y := MatMul(a, x)
	if y.Data[0] != 17 || y.Data[1] != 39 {
		t.Fatalf("MatMul with a column vector = %v", y.Data)
	}
}

func TestAddRowVecSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	dst := New(2, 3)
	AddRowVecInto(dst, a, v)
	if dst.at(1, 2) != 36 {
		t.Fatalf("AddRowVec = %v", dst.Data)
	}
	s := New(3)
	SumRowsInto(s, a)
	if s.Data[0] != 5 || s.Data[1] != 7 || s.Data[2] != 9 {
		t.Fatalf("SumRows = %v", s.Data)
	}
}

// Property: matmul distributes over addition, A(B+C) = AB + AC.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Rand(rng, 1, 4, 5)
		b := Rand(rng, 1, 5, 3)
		c := Rand(rng, 1, 5, 3)
		lhs := MatMul(a, add(b, c))
		rhs := add(MatMul(a, b), MatMul(a, c))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A^T)^T = A and (AB)^T = B^T A^T.
func TestTransposeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Rand(rng, 1, 3, 6)
		b := Rand(rng, 1, 6, 4)
		att := transposeRef(transposeRef(a))
		for i := range a.Data {
			if att.Data[i] != a.Data[i] {
				return false
			}
		}
		lhs := transposeRef(MatMul(a, b))
		rhs := MatMul(transposeRef(b), transposeRef(a))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAndFill(t *testing.T) {
	a := New(4)
	a.Fill(2)
	a.Apply(func(x float64) float64 { return x * x })
	for _, v := range a.Data {
		if v != 4 {
			t.Fatalf("Apply = %v", a.Data)
		}
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, 1, 128, 128)
	y := Rand(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
