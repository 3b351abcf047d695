// Package bitvec provides dense bit vectors and selection vectors used by
// the scan kernels and the pruning machinery.
//
// A BitVec is a fixed-length sequence of bits stored 64 per word. It is the
// unit of scan output (one bit per row: does the row qualify?) and of zone
// candidate sets (one bit per zone: must the zone be scanned?). The bulk
// reads — Count, CountRange, NextSet — work word-at-a-time, ~N/64
// operations.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// BitVec is a fixed-size bit vector. The zero value is an empty vector of
// length 0; use New to create one with a given length.
type BitVec struct {
	words []uint64
	n     int
}

// New returns a BitVec of n bits, all zero.
func New(n int) *BitVec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &BitVec{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *BitVec) Len() int { return v.n }

// Grow extends the vector to n bits (no-op when already that long). New
// bits are zero. Growth amortizes through the backing slice's capacity.
func (v *BitVec) Grow(n int) {
	if n <= v.n {
		return
	}
	words := (n + wordBits - 1) / wordBits
	for len(v.words) < words {
		v.words = append(v.words, 0)
	}
	v.n = n
}

// Words exposes the backing words for word-at-a-time consumers. The final
// word's bits beyond Len are always zero.
func (v *BitVec) Words() []uint64 { return v.words }

// Word returns the i-th backing word, or 0 when v is nil or i lies past its
// end, so a consumer that walks a row window word by word (the scan kernels
// over a null bitmap that may be absent or shorter than the column) treats
// the rows the vector does not reach as unset without a length check.
func (v *BitVec) Word(i int) uint64 {
	if v == nil || uint(i) >= uint(len(v.words)) {
		return 0
	}
	return v.words[i]
}

// Get reports whether bit i is set.
func (v *BitVec) Get(i int) bool {
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i.
func (v *BitVec) Set(i int) {
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v *BitVec) Clear(i int) {
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetAll sets every bit.
func (v *BitVec) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trimTail()
}

// CountRange returns the number of set bits in [lo, hi).
func (v *BitVec) CountRange(lo, hi int) int {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: CountRange [%d,%d) out of bounds for length %d", lo, hi, v.n))
	}
	if lo == hi {
		return 0
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		return bits.OnesCount64(v.words[first] & loMask & hiMask)
	}
	c := bits.OnesCount64(v.words[first] & loMask)
	for i := first + 1; i < last; i++ {
		c += bits.OnesCount64(v.words[i])
	}
	c += bits.OnesCount64(v.words[last] & hiMask)
	return c
}

// Count returns the number of set bits.
func (v *BitVec) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of v.
func (v *BitVec) Clone() *BitVec {
	c := &BitVec{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// none exists.
func (v *BitVec) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Equal reports whether v and o have identical length and bits.
func (v *BitVec) Equal(o *BitVec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a 0/1 string, bit 0 first. Intended for
// tests and debugging of short vectors.
func (v *BitVec) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// trimTail zeroes the unused bits of the final word so that Count and
// word-level comparisons remain exact.
func (v *BitVec) trimTail() {
	if tail := v.n % wordBits; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= ^uint64(0) >> uint(wordBits-tail)
	}
}
