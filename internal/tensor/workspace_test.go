package tensor

import (
	"testing"
	"unsafe"
)

func TestWorkspaceReusesSlots(t *testing.T) {
	var ws Workspace
	a := ws.New(3, 4)
	v := ws.View(a, 12)
	b := ws.New(5)
	a.Fill(1)
	b.Fill(2)
	if v.Data[11] != 1 || len(v.Shape) != 1 || v.Shape[0] != 12 {
		t.Fatalf("view %v does not show its parent's data", v.Shape)
	}
	ws.Reset()
	a2 := ws.New(2, 2) // smaller: same header, same array, zeroed
	if a2 != a || &a2.Data[0] != &v.Data[0] {
		t.Fatal("slot 0 was not reused after Reset")
	}
	if a2.Len() != 4 || a2.Dim(0) != 2 || a2.Dim(1) != 2 {
		t.Fatalf("reused slot has shape %v", a2.Shape)
	}
	for _, x := range a2.Data {
		if x != 0 {
			t.Fatal("reused slot not zeroed")
		}
	}
	if grown := ws.New(4, 4); grown != v || grown.Len() != 16 { // slot 1 was a view: it gets storage now
		t.Fatal("slot 1 was not reused after Reset")
	}
}

func TestWorkspaceViewRejectsOtherSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("View changing the element count must panic")
		}
	}()
	var ws Workspace
	ws.View(New(2, 3), 4)
}

// TestWorkspaceAllocs: once the tape is filled, a pass that repeats its
// requests — smaller ones included — allocates nothing.
func TestWorkspaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var ws Workspace
	ext := New(6, 4)
	pass := func(b int) {
		ws.Reset()
		x := ws.New(b, 3, 4)
		ws.View(x, b*3, 4)
		ws.New(b)
		ws.View(ext, 24)
	}
	pass(8)
	if n := testing.AllocsPerRun(50, func() { pass(8); pass(7); pass(1) }); n != 0 {
		t.Fatalf("a filled tape allocates %v objects per three passes", n)
	}
}

// TestParallelForAllocs: a multi-chunk call costs its caller's closure and
// nothing else — the job struct is recycled.
func TestParallelForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := NewPool(2)
	data := make([]float64, 64)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	work := len(data) * fanOutWork
	p.ParallelFor(len(data), work, fn) // fills the job pool
	if n := testing.AllocsPerRun(200, func() { p.ParallelFor(len(data), work, fn) }); n != 0 {
		t.Fatalf("multi-chunk ParallelFor allocates %v objects per call", n)
	}
	// The kernels ask Inline first, so with one chunk or no pool they do
	// not even build the closure.
	SetParallel(false)
	defer SetParallel(true)
	a, b, dst, dw := New(64, 8), New(8, 8), New(64, 8), New(8, 8)
	if n := testing.AllocsPerRun(50, func() {
		MatMulAccum(dst, a, b)
		MatMulTransBAccum(dst, a, b)
		MatMulTransAAccum(dw, a, dst)
		dst.AddScaled(1, a)
		dst.Scale(0.5)
	}); n != 0 {
		t.Fatalf("serial kernels allocate %v objects", n)
	}
}

// FuzzWorkspace drives a Workspace with a random sequence of New, View and
// Reset and checks it against the model it replaces, tensor.New: every
// tensor has the requested shape and is all zero; no two tensors handed out
// between two resets share a header or storage (each is filled with its own
// marker, and all markers must survive until the reset); a view shows its
// parent's storage.
func FuzzWorkspace(f *testing.F) {
	// New(4,3), View(#0 as [2,6]), Reset, New(2,3), New(5). The committed
	// corpus under testdata/fuzz/FuzzWorkspace uses the same encoding:
	// {1, rank-1, dims...} is New, {6, i, k-1} is View of live tensor i as
	// [k, n/k], {0} is Reset.
	f.Add([]byte{1, 1, 4, 3, 6, 0, 1, 0, 1, 1, 2, 3, 1, 0, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var ws Workspace
		type handed struct {
			t      *Tensor
			shape  []int
			marker float64 // every element must hold it until the next Reset
		}
		var live []handed
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		check := func() {
			for i, h := range live {
				if !sameDims(h.t.Shape, h.shape) {
					t.Fatalf("tensor %d has shape %v, was handed out as %v", i, h.t.Shape, h.shape)
				}
				for _, v := range h.t.Data {
					if v != h.marker {
						t.Fatalf("tensor %d (shape %v) holds %v, want its marker %v: storage is shared", i, h.shape, v, h.marker)
					}
				}
			}
		}
		for len(prog) > 0 {
			switch op := next() % 8; {
			case op == 0:
				check()
				ws.Reset()
				live = live[:0]
			case op <= 5: // New
				shape := make([]int, 1+next()%3)
				n := 1
				for i := range shape {
					shape[i] = next() % 6
					n *= shape[i]
				}
				got := ws.New(shape...)
				if !sameDims(got.Shape, shape) || len(got.Data) != n {
					t.Fatalf("New(%v) has shape %v and %d elements", shape, got.Shape, len(got.Data))
				}
				for _, v := range got.Data {
					if v != 0 {
						t.Fatalf("New(%v) is not zeroed", shape)
					}
				}
				for i, h := range live {
					if h.t == got {
						t.Fatalf("New(%v) reuses the header of live tensor %d", shape, i)
					}
				}
				marker := float64(len(live) + 1)
				got.Fill(marker)
				live = append(live, handed{got, shape, marker})
			default: // View of something live
				if len(live) == 0 {
					continue
				}
				parent := live[next()%len(live)]
				n := len(parent.t.Data)
				shape := []int{n}
				if k := 1 + next()%4; n%k == 0 {
					shape = []int{k, n / k}
				}
				got := ws.View(parent.t, shape...)
				if !sameDims(got.Shape, shape) || len(got.Data) != n {
					t.Fatalf("View(%v) has shape %v and %d elements", shape, got.Shape, len(got.Data))
				}
				if n > 0 && unsafe.SliceData(got.Data) != unsafe.SliceData(parent.t.Data) {
					t.Fatalf("View(%v) does not share its parent's storage", shape)
				}
				live = append(live, handed{got, shape, parent.marker})
			}
		}
		check()
	})
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
