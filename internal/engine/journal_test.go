package engine

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/telemetry"
)

// TestOneJournal drives every kind of adaptation the system has — build,
// splits, a merge, an arbitration disable and re-enable, a tail
// fold, a quarantine and a second build — and checks the "one journal"
// invariant: each change is recorded exactly once, in the
// ledger; the per-kind counter and both telemetry views are the same
// records counted or projected, never a second log.
func TestOneJournal(t *testing.T) {
	tb := buildTable(t, 4096, 1)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: 512, MinZoneRows: 32})
	if err := e.EnableSkipping("a", "b"); err != nil {
		t.Fatal(err)
	}
	count := func(col string, lo, hi int64) {
		t.Helper()
		q := Query{Where: expr.And(intPred(col, expr.Between, lo, hi)), Aggs: []Agg{{Kind: CountStar}}}
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Splits: a narrow hot range on the sorted column.
	for i := 0; i < 8; i++ {
		count("a", 1000, 1040)
	}
	// Merge, then disable: on the uniform column no zone ever prunes, so
	// zones go cold and coalesce, and arbitration then turns probing off
	// (it waits for more than adaptive.Horizon queries).
	for i := 0; i < 40; i++ {
		count("b", 400, 420)
	}
	// Enable: a predicate outside the domain is one every shadow probe
	// would have skipped entirely; one comes every adaptive.Horizon
	// queries.
	for i := 0; i < 32; i++ {
		count("b", 5000, 6000)
	}
	// Tail fold: append past the zone size; the next query syncs skippers.
	rows := make([][]storage.Value, 600)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(4096 + i)), storage.IntValue(7),
			storage.FloatValue(1), storage.StringValue("ant")}
	}
	if err := e.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	count("a", 1000, 1040)
	// Quarantine: one injected layout corruption, detected by the next probe.
	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	count("a", 1000, 1040)
	restore()
	count("a", 1000, 1040)
	if e.Skipper("a") != nil {
		t.Fatal("injected corruption was not quarantined")
	}
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}

	recs := e.Ledger().Records()
	perKind := map[obs.EventKind]int64{}
	type key struct{ col, kind string }
	perSeries := map[key]int64{}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: the journal is not one gapless sequence", i, r.Seq)
		}
		perKind[r.Kind]++
		perSeries[key{r.Column, r.Kind.String()}]++
	}
	for _, k := range []obs.EventKind{obs.EventSkipperBuilt, obs.EventSplit, obs.EventMerge,
		obs.EventDisable, obs.EventEnable, obs.EventTailFold, obs.EventQuarantine} {
		if perKind[k] == 0 {
			t.Errorf("no %s record: the scenario never drove it (kinds seen: %v)", k, perKind)
		}
	}
	if perKind[obs.EventSkipperBuilt] != 3 || perKind[obs.EventQuarantine] != 1 ||
		perKind[obs.EventDisable] != 1 || perKind[obs.EventEnable] != 1 {
		t.Errorf("one-off changes recorded more or less than once: %v", perKind)
	}

	// The per-kind counter is the journal, counted.
	var counted int64
	for k, want := range perSeries {
		got := e.Metrics().Counter("adskip_adapt_events_total", "",
			obs.L("table", "t"), obs.L("column", k.col), obs.L("kind", k.kind)).Load()
		if got != want {
			t.Errorf("adskip_adapt_events_total{column=%q,kind=%q} = %d, ledger holds %d", k.col, k.kind, got, want)
		}
		counted += got
	}
	if counted != int64(e.Ledger().Seq()) {
		t.Errorf("per-kind counters sum to %d, Ledger.Seq() = %d", counted, e.Ledger().Seq())
	}

	// /adaptation is the journal, projected.
	srv, err := telemetry.Start("", telemetry.Source{
		Registry: e.Metrics(), Traces: obs.NewTraceRing(0),
		Adaptation: func(maxDead int) obs.AdaptationSnapshot {
			return obs.AdaptationSnapshot{
				Total: e.Ledger().Seq(), Dropped: e.Ledger().Dropped(),
				Events: e.Ledger().Records(), ROI: e.AdaptationROI(maxDead),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var adaptation obs.AdaptationSnapshot
	getJSON(t, srv.URL()+"/adaptation", &adaptation)
	if len(adaptation.Events) != len(recs) {
		t.Fatalf("/adaptation has %d records, the ledger %d", len(adaptation.Events), len(recs))
	}
	for i := range recs {
		if adaptation.Events[i].Seq != recs[i].Seq || adaptation.Events[i].Kind != recs[i].Kind {
			t.Fatalf("record %d: /adaptation %v, ledger %v", i, adaptation.Events[i], recs[i])
		}
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestIntrospectDerivationsMatchParent is the differential check on
// AdaptationROI's rows (net benefit, dead zones and their detail): on this
// fixed seeded run — splits, a point query that splits the first zone, a
// column that never prunes — they must equal, byte for byte, what the
// skipper's own SnapshotROI produced when the literals were recorded.
// Figures that have moved on purpose since:
//   - bytes_skipped charges column a's 4-byte codes (rows_skipped x 4),
//     where every column used to be charged 8 bytes a row;
//   - bytes counts the whole 56-byte zone (40 in the directory, 16 for
//     what the zonemap learns of it), the 16-byte block (24 while a block
//     carried a has-data flag beside its hull, 2312 and 1528 in all) and,
//     since splits read the summary, its 32 parts of 40 bytes: 18 x 56 +
//     16 + 1280 = 2304 for column a, 4 x 56 + 16 + 1280 = 1520 for b (it
//     read 752 and 248 before the summary, 1072 and 352 with the per-zone
//     hit/miss counters, 80 and 32 bytes);
//   - column a's splits cut at the summary's part boundaries in one step,
//     where they used to cut a zone into eighths and refine those later,
//     so it ends with 18 zones, not 13, after 2 maintenance events over
//     16 zones (4 over 14), and its probes tested 485 entries and skipped
//     158848 rows (441 and 158464);
//   - rows_skipped and zone_probes are the column's adskip_column_*
//     counters rather than the skipper's own, and read the same figures;
//   - a dead zone is one whose heat is below MergeHeat, and its detail
//     carries that heat where it carried hits/misses: b's zones missed ten
//     probes each (0.5 x 0.75^10 = 0.028), and none of a's is cold;
//   - a cold run merges on the query that finds it cold: b's four zones
//     turn cold on its ninth query and merge into one there, where a sweep
//     every 8th query never came round to them. So b ends with 1 zone of
//     1352 bytes (1 x 56 + 16 + 1280), 1 maintenance event over 4 zones,
//     47 entries probed (9 x 5 + 2; 50 as four zones) and a net of
//     -4 x 47 = -188 rows (-200 as four zones), and one dead zone, not
//     four;
//   - net_benefit_rows is adaptive.Net(rows_skipped, zone_probes), the
//     charge arbitration steps its EWMA by: 158848 - 4 x 485 = 156908 for
//     column a. It also debited 64 rows per maintenance zone, a figure no
//     decision read: 156908 - 64 x 16 = 155884 for a, -188 - 64 x 4 =
//     -444 for b;
//   - maintenance_events counts the column's split, merge, tail-fold,
//     disable and enable records, one per edit, as adskip_adapt_events_total
//     does, where the skipper counted the Observes that edited. Each
//     editing Observe here made one edit: a's two splits of one zone into
//     8 (2 events, 2 x 8 = 16 zones) and b's one merge of 4 zones into 1
//     (1 event, 4 zones), so both columns read as before.
func TestIntrospectDerivationsMatchParent(t *testing.T) {
	tb := buildTable(t, 4096, 1)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: 1024, MinZoneRows: 128})
	if err := e.EnableSkipping("a", "b"); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"a", "b"} {
		e.Skipper(col).(*adaptive.Zonemap).Ablate(adaptive.Arbitration)
	}
	rng := rand.New(rand.NewSource(7))
	count := []Agg{{Kind: CountStar}}
	for i := 0; i < 40; i++ {
		lo := 1500 + rng.Int63n(400)
		if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, lo, lo+60)), Aggs: count}); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := e.Query(Query{Where: expr.And(intPred("b", expr.Between, 400, 420)), Aggs: count}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, 100, 100)), Aggs: count}); err != nil {
		t.Fatal(err)
	}

	const wantROI = `[` +
		`{"table":"t","column":"a","kind":"adaptive","zones":18,"bytes":1936,` +
		`"rows_skipped":158848,"rows_covered":0,"bytes_skipped":635392,"candidate_rows":9088,"zone_probes":485,` +
		`"maintenance_events":2,"maintenance_zones":16,"net_benefit_rows":156908,"dead_zones":0},` +
		`{"table":"t","column":"b","kind":"adaptive","zones":1,"bytes":1200,` +
		`"rows_skipped":0,"rows_covered":0,"bytes_skipped":0,"candidate_rows":40960,"zone_probes":47,` +
		`"maintenance_events":1,"maintenance_zones":4,"net_benefit_rows":-188,"dead_zones":1,` +
		`"dead_zone_detail":[` +
		`{"lo":0,"hi":4096,"min":0,"max":999,"heat":0.028156757354736328}]}]`

	roi, err := json.Marshal(e.AdaptationROI(2))
	if err != nil {
		t.Fatal(err)
	}
	if string(roi) != wantROI {
		t.Errorf("AdaptationROI(2) drifted from the parent commit:\n got %s\nwant %s", roi, wantROI)
	}
}

// The journal sink resolves each (column, kind) counter on the kind's
// first record: once the ledger ring is full, recording one more adds to
// a resolved counter and overwrites a slot, and allocates nothing.
func TestJournalSinkAllocatesNothing(t *testing.T) {
	e := New(buildTable(t, 4096, 1), Options{Policy: PolicyAdaptive, Ledger: obs.NewLedger(16)})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	sink := e.journal("a")
	e.mu.Unlock()
	rec := obs.LedgerRecord{Kind: obs.EventSplit, Cause: "split-gain", ZonesBefore: 1, ZonesAfter: 2}
	for i := 0; i < 16; i++ {
		sink(rec)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink(rec) }); allocs != 0 {
		t.Fatalf("one journal record allocates %v times", allocs)
	}
	series := e.Metrics().Counter("adskip_adapt_events_total", "",
		obs.L("table", "t"), obs.L("column", "a"), obs.L("kind", "split"))
	if got := series.Load(); got != 16+101 {
		t.Fatalf("the split series counts %d records, want %d", got, 16+101)
	}
}
