package core_test

import (
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

func TestNoSkipper(t *testing.T) {
	s := core.NewNoSkipper(100)
	res := s.Prune(oneRange(0, 10))
	if res.Enabled || res.ZonesProbed != 0 || len(res.Zones) != 0 {
		t.Fatalf("res=%+v", res)
	}
	if s.Rows() != 100 {
		t.Fatalf("Rows=%d", s.Rows())
	}
	s.Extend(storage.Vec{W: make([]int64, 150)}, nil)
	if s.Rows() != 150 {
		t.Fatalf("Rows after extend=%d", s.Rows())
	}
	md := s.Metadata()
	if md.Kind != "none" || md.Zones != 0 || md.Bytes != 0 {
		t.Fatalf("metadata=%+v", md)
	}
	// No-ops must not panic, and the cold-path duties answer "nothing".
	s.Observe(res)
	s.Refresh(3, storage.Vec{W: make([]int64, 150)}, nil)
	s.SetJournal(nil)
	if snap, ok := s.Introspect(); s.CheckInvariants(storage.Vec{}, nil) != nil ||
		snap.DeadZones != nil || ok {
		t.Fatalf("snapshot=%+v, accounts kept: %v", snap, ok)
	}
}

// The static policy, driven through the contract alone.
func TestStaticSkipper(t *testing.T) {
	codes := make([]int64, 100)
	for i := range codes {
		codes[i] = int64(i)
	}
	var s core.Skipper = zonemap.Build(storage.Vec{W: codes}, nil, 10)
	if s.Rows() != 100 {
		t.Fatalf("Rows=%d", s.Rows())
	}
	res := s.Prune(oneRange(25, 44))
	if !res.Enabled || res.ZonesProbed != 11 || res.RowsSkipped != 70 { // one block, then its 10 zones
		t.Fatalf("res=%+v", res)
	}
	// Zones [20,30) partial, [30,40) covered, [40,50) partial: coverage
	// boundaries prevent merging into one window.
	if len(res.Zones) != 3 || res.Zones[0].Lo != 20 || res.Zones[2].Hi != 50 || !res.Zones[1].Covered {
		t.Fatalf("zones=%v", res.Zones)
	}
	md := s.Metadata()
	if md.Kind != "static" || md.Zones != 10 || !md.Enabled {
		t.Fatalf("metadata=%+v", md)
	}

	// Extend then prune the new region.
	codes = append(codes, 1000, 1001, 1002)
	s.Extend(storage.Vec{W: codes}, nil)
	if s.Rows() != 103 {
		t.Fatalf("Rows after extend=%d", s.Rows())
	}
	res = s.Prune(oneRange(1000, 2000))
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 {
		t.Fatalf("extended prune: %v", res.Zones)
	}

	// Refresh keeps updated rows scannable.
	codes[5] = 5555
	s.Refresh(5, storage.Vec{W: codes}, nil)
	res = s.Prune(oneRange(5555, 5555))
	found := false
	for _, z := range res.Zones {
		if z.Lo <= 5 && 5 < z.Hi {
			found = true
		}
	}
	if !found {
		t.Fatal("widened zone not a candidate")
	}
	s.Observe(res) // no-op
}

func TestStaticSkipperNulls(t *testing.T) {
	codes := make([]int64, 20)
	nulls := bitvec.New(20)
	for i := 0; i < 10; i++ {
		nulls.Set(i)
	}
	for i := 10; i < 20; i++ {
		codes[i] = int64(i)
	}
	var s core.Skipper = zonemap.Build(storage.Vec{W: codes}, nulls, 10)
	res := s.Prune(oneRange(-1000, 1000))
	if len(res.Zones) != 1 || res.Zones[0].Lo != 10 {
		t.Fatalf("all-null zone not skipped: %v", res.Zones)
	}
	// A NULL row that gains a value makes its zone a candidate.
	codes[3] = 7
	nulls.Clear(3)
	s.Refresh(3, storage.Vec{W: codes}, nulls)
	if res := s.Prune(oneRange(7, 7)); len(res.Zones) != 1 || res.Zones[0] != (core.CandidateZone{Lo: 0, Hi: 10}) {
		t.Fatalf("the zone that gained a value: %v", res.Zones)
	}
}
