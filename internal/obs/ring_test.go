package obs

import (
	"reflect"
	"testing"
)

// TestRing is the one test of the next/wrap arithmetic every bounded
// history shares: retained order, counters and back-indexing when the
// ring is under-full, exactly full, and wrapped several times.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		pushes   int
		want     []int // retained, oldest-first
	}{
		{"empty", 4, 0, nil},
		{"under-full", 4, 3, []int{1, 2, 3}},
		{"exactly full", 4, 4, []int{1, 2, 3, 4}},
		{"wrapped by one", 4, 5, []int{2, 3, 4, 5}},
		{"wrapped twice to the boundary", 4, 12, []int{9, 10, 11, 12}},
		{"wrapped three times and a bit", 4, 14, []int{11, 12, 13, 14}},
		{"capacity one", 1, 3, []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			for v := 1; v <= tc.pushes; v++ {
				*r.Push() = v
			}
			if got := r.AppendTo(nil); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("AppendTo = %v, want %v", got, tc.want)
			}
			if got := r.AppendTo([]int{-1}); len(got) != 1+len(tc.want) || got[0] != -1 {
				t.Fatalf("AppendTo did not extend dst: %v", got)
			}
			if r.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(tc.want))
			}
			if r.Total() != uint64(tc.pushes) {
				t.Fatalf("Total = %d, want %d", r.Total(), tc.pushes)
			}
			if want := uint64(tc.pushes - len(tc.want)); r.Dropped() != want {
				t.Fatalf("Dropped = %d, want %d", r.Dropped(), want)
			}
			for back := 0; back < r.Len(); back++ {
				if got, want := *r.At(back), tc.want[len(tc.want)-1-back]; got != want {
					t.Fatalf("At(%d) = %d, want %d", back, got, want)
				}
			}
		})
	}
}

// TestRingSlotReuse: once wrapped, Push hands back the evicted element
// itself, so a holder can recycle the backing arrays it owns.
func TestRingSlotReuse(t *testing.T) {
	r := NewRing[[]int](2)
	for i := 0; i < 2; i++ {
		*r.Push() = make([]int, 0, 8)
	}
	oldest := *r.At(1)
	slot := r.Push()
	if cap(*slot) != 8 || &(*slot)[:1][0] != &oldest[:1][0] {
		t.Fatal("Push after wrap did not return the evicted element's slot")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Push() }); allocs != 0 {
		t.Fatalf("Push allocates %v times per call", allocs)
	}
}
