package tensor

import "fmt"

// Workspace is a step-scoped tape of tensors: the i-th request after a
// Reset reuses the i-th slot — its backing array and its Tensor header and
// shape — so a loop that makes the same requests every iteration (a train
// step, a forward pass) allocates nothing once the tape has been filled.
// A slot's storage grows when a larger request arrives at its position and
// is never shrunk.
//
// Lifetime rule: a tensor handed out by New or View belongs to the
// workspace and is valid until the next Reset; after that the same header
// is handed out again with another shape and other contents. Copy whatever
// must live longer. The zero Workspace is ready to use. A Workspace is not
// safe for concurrent use: one goroutine owns it at a time (every
// train.Model has its own, and a model runs one pass at a time).
type Workspace struct {
	slots []*slot
	next  int
}

// slot is one tape position. Slots are allocated individually so the
// *Tensor handed out stays valid when the tape grows.
type slot struct {
	t    Tensor
	buf  []float64 // storage this slot owns; kept at full capacity across resets
	dims [6]int    // backs t.Shape up to rank 6 (the [B,T,C,G,G,G] cubes)
}

// Reset rewinds the tape: the next New or View reuses slot 0. Nothing is
// freed.
func (w *Workspace) Reset() { w.next = 0 }

func (w *Workspace) take(shape []int) *slot {
	if w.next == len(w.slots) {
		w.slots = append(w.slots, new(slot))
	}
	s := w.slots[w.next]
	w.next++
	s.t.Shape = append(s.dims[:0], shape...)
	return s
}

// New returns a zeroed tensor of the given shape, exactly as the package
// level New does, on the next slot of the tape.
func (w *Workspace) New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The message leaves shape out: passing it to fmt would make
			// every caller's variadic slice escape to the heap.
			panic(fmt.Sprintf("tensor: negative dimension %d in workspace shape", d))
		}
		n *= d
	}
	s := w.take(shape)
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	} else {
		s.buf = s.buf[:n]
		clear(s.buf)
	}
	s.t.Data = s.buf
	return &s.t
}

// NewBatch returns a zeroed [n, x.Shape...] tensor: room for n stacked
// tensors shaped like x.
func (w *Workspace) NewBatch(n int, x *Tensor) *Tensor {
	var dims [8]int // on the stack for any rank this repository uses
	return w.New(append(append(dims[:0], n), x.Shape...)...)
}

// View returns a tensor of the given shape over t's storage, with no
// header allocation. The view takes a slot of its own, so it lives as long
// as any other tensor of the step; t may or may not belong to the
// workspace.
func (w *Workspace) View(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: view of %d elements as %d changes element count", len(t.Data), n))
	}
	s := w.take(shape)
	s.t.Data = t.Data
	return &s.t
}
