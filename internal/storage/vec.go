package storage

// Code is the element type of a code vector: uint32 while every code of
// the column lies in [0, 2^32), int64 once one does not. Scan kernels are
// generic over it.
type Code interface{ ~uint32 | ~int64 }

// Vec is a read-only view of a column's codes — the whole vector or a
// window of it — at the width they are stored in: N holds zero-extended
// 32-bit codes, W full int64 codes. At most one of the two is non-nil
// (neither, for a view of no rows), and code i is N[i] or W[i] whichever
// the view has, so row indices do not depend on the width. A view aliases
// column storage: it must not be written through or kept across appends.
//
// Readers that walk rows one at a time use At; kernels switch on the width
// once per call and run a loop typed to the slice (package scan).
type Vec struct {
	N []uint32
	W []int64
}

// Len returns the number of codes in view.
func (v Vec) Len() int { return len(v.N) + len(v.W) }

// Width returns the bytes one code occupies: 4 or 8 (4 for a view of no
// rows, whose width nothing depends on).
func (v Vec) Width() int {
	if v.W != nil {
		return 8
	}
	return 4
}

// At returns code i.
func (v Vec) At(i int) int64 {
	if v.W != nil {
		return v.W[i]
	}
	return int64(v.N[i])
}

// Slice returns the view of codes [lo, hi), at the same width.
func (v Vec) Slice(lo, hi int) Vec {
	if v.W != nil {
		return Vec{W: v.W[lo:hi]}
	}
	return Vec{N: v.N[lo:hi]}
}

func (v Vec) capacity() int { return cap(v.N) + cap(v.W) }

// clip returns the same view with no capacity beyond its codes.
func (v Vec) clip() Vec {
	return Vec{N: v.N[:len(v.N):len(v.N)], W: v.W[:len(v.W):len(v.W)]}
}

// copyWide copies the view's codes into dst, widening narrow ones, and
// returns how many it copied.
func (v Vec) copyWide(dst []int64) int {
	for i, c := range v.N {
		dst[i] = int64(c)
	}
	return len(v.N) + copy(dst, v.W)
}

// widened returns the view's codes as int64 in a new vector of n codes, n
// no less than the view's length; codes beyond it are 0.
func (v Vec) widened(n int) Vec {
	w := make([]int64, n)
	v.copyWide(w)
	return Vec{W: w}
}

// fits reports whether code is representable in T.
func fits[T Code](code int64) bool { return int64(T(code)) == code }
