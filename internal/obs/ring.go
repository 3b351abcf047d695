package obs

// Ring is the one bounded overwrite-oldest buffer behind every retained
// history in the process: the adaptation ledger and the trace rings. It
// is unsynchronised — each holder guards it with whatever lock already
// guards the rest of its state. Its buffer grows as it fills, doubling up
// to the capacity, so a ring that retains k elements holds fewer than 2k
// slots; once full it never allocates again: Push hands out the slot to
// overwrite.
type Ring[T any] struct {
	buf      []T    // the retained elements; len(buf) grows to capacity, then stays
	capacity int    // elements retained at most
	next     int    // slot the next Push hands out
	total    uint64 // pushes ever made
}

// NewRing returns a ring retaining the last capacity elements
// (capacity must be positive).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{capacity: capacity}
}

// Push advances the ring and returns the slot for the new element: a zero
// element while the ring fills. Once the ring has wrapped the slot still
// holds the evicted (oldest) element: assign over it, or reuse its parts
// first. A slot pointer is good until the next Push.
func (r *Ring[T]) Push() *T {
	if n := len(r.buf); n < r.capacity {
		if n == cap(r.buf) {
			grown := make([]T, n, min(max(2*n, 1), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = r.buf[:n+1]
	}
	slot := &r.buf[r.next]
	r.next++
	if r.next == r.capacity {
		r.next = 0
	}
	r.total++
	return slot
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

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
// the extended slice. Elements are copied shallowly. Until the ring wraps
// next is len(buf), so the first half is empty.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}
