package obs

// Ring is a fixed-capacity buffer that overwrites its oldest element when
// full and counts every overwrite. It is the one bounded ring behind the
// span ring (Tracer), the event journal and the tsdb series. A Ring is not
// synchronised — each owner already holds a lock around its other state.
// Push never allocates: the backing array is sized once, by NewRing.
type Ring[T any] struct {
	buf     []T
	next    int // overwrite position once the buffer is full
	dropped uint64
}

// NewRing builds a ring holding up to capacity elements (capacity > 0).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, overwriting the oldest element when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Dropped reports how many elements Push has overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// each calls f on every live element in place, oldest first.
func (r *Ring[T]) each(f func(*T)) {
	for i := range r.buf {
		f(&r.buf[(r.next+i)%len(r.buf)])
	}
}

// Snapshot copies the live elements, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
