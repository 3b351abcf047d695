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
	for i := 10; i < 40; i++ {
		a.Set(i)
	}
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

// Property: after bits are set range by range, CountRange over any window
// agrees with a naive bit loop.
func TestQuickRangeOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		v := New(n)
		ref := make([]bool, n)
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			for i := lo; i < hi; i++ {
				v.Set(i)
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
	v := New(1 << 20)
	v.SetAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}
