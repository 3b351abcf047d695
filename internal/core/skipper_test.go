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
	s.SetJournal(nil)
	if snap, ok := s.Introspect(); s.CheckInvariants(storage.Vec{}, nil) != nil ||
		snap.DeadZones != nil || ok {
		t.Fatalf("snapshot=%+v, accounts kept: %v", snap, ok)
	}
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
}
