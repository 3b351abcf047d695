package obs

// Ring is the one bounded overwrite-oldest buffer behind every retained
// history in the process: the adaptation ledger and the trace rings. It
// is unsynchronised — each holder guards it with whatever lock already
// guards the rest of its state — and it never allocates after
// construction: Push hands out the slot to overwrite.
type Ring[T any] struct {
	buf   []T
	next  int    // slot the next Push hands out
	total uint64 // pushes ever made
}

// NewRing returns a ring retaining the last capacity elements
// (capacity must be positive).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push advances the ring and returns the slot for the new element. Once
// the ring has wrapped the slot still holds the evicted (oldest) element:
// assign over it, or reuse its parts first.
func (r *Ring[T]) Push() *T {
	slot := &r.buf[r.next]
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
	return slot
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of elements ever pushed.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many elements have been overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(r.Len()) }

// At returns the element back pushes behind the newest (At(0) is the
// newest). back must be in [0, Len()).
func (r *Ring[T]) At(back int) *T {
	i := r.next - 1 - back
	if i < 0 {
		i += len(r.buf)
	}
	return &r.buf[i]
}

// AppendTo appends the retained elements to dst oldest-first and returns
// the extended slice. Elements are copied shallowly.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if n := r.Len(); n < len(r.buf) {
		return append(dst, r.buf[:n]...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}
