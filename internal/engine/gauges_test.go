package engine

import (
	"strconv"
	"strings"
	"testing"

	"adskip/internal/core"
	"adskip/internal/expr"
)

// TestSkipperGaugesReadLiveSkipper: a column's adskip_skipper_zones,
// _bytes and _enabled series are read when the registry is exposed, from
// the skipper the column has then — its metadata after EnableSkipping,
// after queries that split its zones and after a second EnableSkipping,
// and zeros while it is dropped after a fault — which is what the per-query refresh they
// replace left in them.
func TestSkipperGaugesReadLiveSkipper(t *testing.T) {
	tb := buildTable(t, 4000, 21)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts})
	check := func(stage string) core.Metadata {
		t.Helper()
		var sb strings.Builder
		if err := e.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var md core.Metadata
		if s := e.Skipper("a"); s != nil {
			md = s.Metadata()
		}
		enabled := 0
		if md.Enabled {
			enabled = 1
		}
		for _, g := range []struct {
			name string
			want int
		}{{"adskip_skipper_zones", md.Zones}, {"adskip_skipper_bytes", md.Bytes}, {"adskip_skipper_enabled", enabled}} {
			line := g.name + `{column="a",table="t"} ` + strconv.Itoa(g.want) + "\n"
			if !strings.Contains(sb.String(), line) {
				t.Errorf("%s: exposition lacks %q:\n%s", stage, line, sb.String())
			}
		}
		return md
	}
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	built := check("after EnableSkipping")
	for lo := int64(0); lo < 4000; lo += 250 {
		if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, lo, lo+40))}); err != nil {
			t.Fatal(err)
		}
	}
	if split := check("after queries"); split.Zones <= built.Zones {
		t.Fatalf("queries left %d zones of %d: nothing split", split.Zones, built.Zones)
	}
	installFaulty(e, &faultySkipper{panicProbe: true})
	if _, err := e.Query(countQuery("a")); err != nil {
		t.Fatal(err)
	}
	if e.Skipper("a") != nil {
		t.Fatal("the faulty skipper was not dropped")
	}
	check("after a quarantine")
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	if md := check("after a second EnableSkipping"); md.Zones == 0 || !md.Enabled {
		t.Fatalf("rebuilt skipper reads %+v", md)
	}
}
