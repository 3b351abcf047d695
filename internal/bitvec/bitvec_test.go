package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLenAndZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len=%d want %d", v.Len(), n)
		}
		if v.Count() != 0 {
			t.Fatalf("new vector of %d bits has Count=%d", n, v.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idxs {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != len(idxs) {
		t.Fatalf("Count=%d want %d", v.Count(), len(idxs))
	}
	for _, i := range idxs {
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
	if v.Count() != 0 {
		t.Fatal("vector not empty after clearing all")
	}
}

func TestSetAllAndNotRespectTail(t *testing.T) {
	v := New(70)
	v.SetAll()
	if v.Count() != 70 {
		t.Fatalf("SetAll Count=%d want 70", v.Count())
	}
	v.Not()
	if v.Count() != 0 {
		t.Fatalf("Not after SetAll Count=%d want 0", v.Count())
	}
	v.Not()
	if v.Count() != 70 {
		t.Fatalf("double Not Count=%d want 70", v.Count())
	}
}

func TestSetRange(t *testing.T) {
	cases := []struct{ n, lo, hi int }{
		{100, 0, 0},
		{100, 0, 100},
		{100, 5, 60},
		{100, 63, 65},
		{100, 64, 64},
		{128, 1, 127},
		{64, 0, 64},
		{65, 64, 65},
	}
	for _, c := range cases {
		v := New(c.n)
		v.SetRange(c.lo, c.hi)
		for i := 0; i < c.n; i++ {
			want := i >= c.lo && i < c.hi
			if v.Get(i) != want {
				t.Fatalf("n=%d SetRange(%d,%d): bit %d = %v want %v", c.n, c.lo, c.hi, i, v.Get(i), want)
			}
		}
		if v.Count() != c.hi-c.lo {
			t.Fatalf("n=%d SetRange(%d,%d): Count=%d want %d", c.n, c.lo, c.hi, v.Count(), c.hi-c.lo)
		}
	}
}

func TestSetRangeOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRange out of bounds did not panic")
		}
	}()
	New(10).SetRange(5, 11)
}

func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(300)
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			v.Set(i)
		}
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(301)
		hi := lo + rng.Intn(301-lo)
		want := 0
		for i := lo; i < hi; i++ {
			if v.Get(i) {
				want++
			}
		}
		if got := v.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d)=%d want %d", lo, hi, got, want)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(130)
	b := New(130)
	a.SetRange(0, 100)
	b.SetRange(50, 130)

	and := a.Clone()
	and.And(b)
	if and.Count() != 50 || !and.Get(50) || !and.Get(99) || and.Get(49) || and.Get(100) {
		t.Fatalf("And wrong: count=%d", and.Count())
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 130 {
		t.Fatalf("Or count=%d want 130", or.Count())
	}

	andnot := a.Clone()
	andnot.AndNot(b)
	if andnot.Count() != 50 || !andnot.Get(0) || andnot.Get(50) {
		t.Fatalf("AndNot wrong: count=%d", andnot.Count())
	}
}

func TestOpsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestNextSet(t *testing.T) {
	v := New(200)
	v.Set(5)
	v.Set(64)
	v.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d)=%d want %d", c.from, got, c.want)
		}
	}
	if got := v.NextSet(200); got != -1 {
		t.Fatalf("NextSet past end = %d want -1", got)
	}
	empty := New(64)
	if got := empty.NextSet(0); got != -1 {
		t.Fatalf("NextSet on empty = %d want -1", got)
	}
}

func TestCloneEqualCopyFrom(t *testing.T) {
	a := New(99)
	a.SetRange(10, 40)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(50)
	if a.Equal(b) {
		t.Fatal("mutating clone affected equality unexpectedly")
	}
	if a.Get(50) {
		t.Fatal("clone shares storage with original")
	}
	if a.Equal(New(100)) {
		t.Fatal("Equal ignored length")
	}
}

func TestString(t *testing.T) {
	v := New(5)
	v.Set(1)
	v.Set(4)
	if s := v.String(); s != "01001" {
		t.Fatalf("String=%q want 01001", s)
	}
}

// Property: SetRange followed by CountRange over any window agrees with a
// naive bit loop.
func TestQuickRangeOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		v := New(n)
		ref := make([]bool, n)
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			v.SetRange(lo, hi)
			for i := lo; i < hi; i++ {
				ref[i] = true
			}
		}
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			want := 0
			for i := lo; i < hi; i++ {
				if ref[i] {
					want++
				}
			}
			if v.CountRange(lo, hi) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — Not(a And b) == Not(a) Or Not(b).
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		lhs := a.Clone()
		lhs.And(b)
		lhs.Not()
		na, nb := a.Clone(), b.Clone()
		na.Not()
		nb.Not()
		na.Or(nb)
		return lhs.Equal(na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSelVecBasics(t *testing.T) {
	s := NewSelVec(4)
	s.Append(3)
	s.Append(7)
	s.AppendRange(10, 13)
	if s.Len() != 5 {
		t.Fatalf("Len=%d want 5", s.Len())
	}
	want := []uint32{3, 7, 10, 11, 12}
	for i, r := range s.Rows() {
		if r != want[i] {
			t.Fatalf("Rows=%v want %v", s.Rows(), want)
		}
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not empty")
	}
}

func BenchmarkCount(b *testing.B) {
	v := NewSet(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkAnd(b *testing.B) {
	x := NewSet(1 << 20)
	y := NewSet(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}
