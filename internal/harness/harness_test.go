package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adskip/internal/engine"
)

// tinyConfig keeps experiment runtime in milliseconds for unit tests.
func tinyConfig() Config {
	return Config{Rows: 20000, Queries: 48, Seed: 7, StaticZoneRows: 512}
}

// checkConfig is the Config an entry's run is checked at: tinyConfig(),
// but for fig2 and abl1, whose adaptive map at 20,000 rows is one default
// zone that no query splits. At 131,072 rows (two default zones) fig2's
// map splits and merges, and abl1's variants end with different zones.
func checkConfig(id string) Config {
	c := tinyConfig()
	if id == "fig2" || id == "abl1" {
		c.Rows = 131072
	}
	return c
}

// adaptiveDecides names, for the entries run at checkConfig's larger
// scale, the column whose cells must not all be equal: the zone count
// that changes across fig2's queries and across abl1's variants.
var adaptiveDecides = map[string]string{"fig2": "adaptive zones", "abl1": "zones (clustered)"}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	for _, ex := range Experiments() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tbl, err := ex.Run(checkConfig(ex.ID))
			if err != nil {
				t.Fatalf("%s: %v", ex.ID, err)
			}
			if tbl.ID != ex.ID {
				t.Fatalf("table id %q want %q", tbl.ID, ex.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Header) == 0 {
				t.Fatalf("%s: empty table", ex.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s row %d: %d cells for %d headers", ex.ID, i, len(row), len(tbl.Header))
				}
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			if !strings.Contains(buf.String(), ex.ID) {
				t.Fatalf("%s: Fprint missing id", ex.ID)
			}
			buf.Reset()
			tbl.CSV(&buf)
			lines := strings.Count(buf.String(), "\n")
			if lines != len(tbl.Rows)+1 {
				t.Fatalf("%s: CSV has %d lines want %d", ex.ID, lines, len(tbl.Rows)+1)
			}
			// EXPERIMENTS.md: "runs are deterministic given -seed". Timings
			// are not, but everything the skipping structures decide is.
			again, err := ex.Run(checkConfig(ex.ID))
			if err != nil {
				t.Fatalf("%s (second run): %v", ex.ID, err)
			}
			decides := adaptiveDecides[ex.ID] == ""
			for c, h := range tbl.Header {
				if !deterministicColumn(h) {
					continue
				}
				for r := range tbl.Rows {
					if tbl.Rows[r][c] != again.Rows[r][c] {
						t.Errorf("%s row %d, column %q: %q then %q with the same Config",
							ex.ID, r, h, tbl.Rows[r][c], again.Rows[r][c])
					}
					decides = decides || h == adaptiveDecides[ex.ID] && tbl.Rows[r][c] != tbl.Rows[0][c]
				}
			}
			if !decides {
				t.Errorf("%s: column %q reads the same in every row, so the check compares no adaptive decision", ex.ID, adaptiveDecides[ex.ID])
			}
		})
	}
}

// deterministicColumn reports whether a table column holds counts the
// skipping structures produce (rows skipped or scanned, shards pruned,
// zones, splits, probes, metadata size, arbitration events) rather than a
// timing. "scan" alone is not enough: ext1's "uniform full-scan" is a time.
func deterministicColumn(header string) bool {
	for _, s := range []string{"skipped", "zones", "metadata", "bytes/row",
		"scanned", "pruned", "splits", "probes", "reduction", "arbitration"} {
		if strings.Contains(header, s) {
			return true
		}
	}
	return false
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Rows != 1<<21 || c.Queries != 512 || c.Seed != 42 || c.StaticZoneRows != 4096 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(100)
	if pts[0] != 0 || pts[len(pts)-1] != 99 {
		t.Fatalf("pts=%v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("not increasing: %v", pts)
		}
	}
	if got := samplePoints(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1: %v", got)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtNs(500) != "0.5µs" || fmtNs(2.5e6) != "2.500ms" || fmtNs(3e9) != "3.000s" {
		t.Fatalf("fmtNs: %s %s %s", fmtNs(500), fmtNs(2.5e6), fmtNs(3e9))
	}
	if fmtBytes(100) != "100B" || fmtBytes(2048) != "2.0KiB" || fmtBytes(3<<20) != "3.0MiB" {
		t.Fatal("fmtBytes wrong")
	}
}

func TestStreamResultWindows(t *testing.T) {
	sr := streamResult{perQueryNs: []int64{10, 20, 30, 40}}
	if sr.avgNs(0, 4) != 25 || sr.avgNs(2, 4) != 35 {
		t.Fatalf("avg: %f %f", sr.avgNs(0, 4), sr.avgNs(2, 4))
	}
	if sr.avgNs(3, 3) != 0 || sr.avgNs(0, 100) != 25 {
		t.Fatal("avg edge cases")
	}
	if sr.medianNs(0, 4) != 30 { // upper median
		t.Fatalf("median: %f", sr.medianNs(0, 4))
	}
	if sr.medianNs(2, 2) != 0 {
		t.Fatal("empty median")
	}
}

// fakeQuerier answers the query whose Limit is i (TestRunSumsAndHooks's
// next puts the query's index there) with RowsScanned i+1 and ZonesProbed
// 2(i+1), logging each call.
type fakeQuerier struct{ log *[]string }

func (f fakeQuerier) Query(q engine.Query) (*engine.Result, error) {
	i := q.Limit
	*f.log = append(*f.log, fmt.Sprintf("query %d", i))
	return &engine.Result{Stats: engine.ExecStats{RowsScanned: i + 1, ZonesProbed: 2 * (i + 1)}}, nil
}

func TestRunSumsAndHooks(t *testing.T) {
	var log []string
	next := func(i int) (engine.Query, error) {
		log = append(log, fmt.Sprintf("next %d", i))
		return engine.Query{Limit: i}, nil
	}
	after := func(i int) { log = append(log, fmt.Sprintf("after %d", i)) }
	sr, err := run(fakeQuerier{&log}, 3, next, after)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"next 0", "query 0", "after 0", "next 1", "query 1", "after 1", "next 2", "query 2", "after 2"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("calls %v, want %v", log, want)
	}
	if len(sr.perQueryNs) != 3 {
		t.Errorf("%d timings for 3 queries", len(sr.perQueryNs))
	}
	if st := (engine.ExecStats{RowsScanned: 1 + 2 + 3, ZonesProbed: 2 + 4 + 6}); sr.stats != st {
		t.Errorf("stats %+v, want the sum %+v", sr.stats, st)
	}

	log = nil
	boom := errors.New("boom")
	_, err = run(fakeQuerier{&log}, 3, func(i int) (engine.Query, error) {
		if i == 1 {
			return engine.Query{}, boom
		}
		return next(i)
	}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err %v, want the error next returned", err)
	}
	if want := []string{"next 0", "query 0"}; !reflect.DeepEqual(log, want) {
		t.Errorf("calls %v, want the stream to stop at the failed next: %v", log, want)
	}
}
