package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adskip/internal/obs"
)

// adaptationSource builds a server source whose /adaptation snapshot
// covers two tables across two shards, with one dead-zone detail entry
// so the full optional key set appears in the golden check.
func adaptationSource() Source {
	src := testSource()
	src.Adaptation = func(maxDead int) obs.AdaptationSnapshot {
		detail := []obs.ROIZone{{Lo: 0, Hi: 64, Min: 5, Max: 9, Heat: 0.01}}
		if maxDead == 0 {
			detail = nil
		}
		return obs.AdaptationSnapshot{
			Total:   5,
			Dropped: 1,
			Events: []obs.LedgerRecord{
				{Seq: 2, Time: time.Unix(1700000000, 0).UTC(), Table: "data", Column: "v",
					Shard: 1, Kind: obs.EventSplit, Cause: "split-gain",
					Fingerprint: "SELECT COUNT(*) FROM data WHERE v < ?",
					ZonesBefore: 4, ZonesAfter: 5, RowLo: 0, RowHi: 1024,
					MinBefore: 1, MaxBefore: 99, MinAfter: 1, MaxAfter: 99},
				{Seq: 3, Time: time.Unix(1700000010, 0).UTC(), Table: "data", Column: "v",
					Shard: 2, Kind: obs.EventTailFold, Cause: "append-fold",
					ZonesBefore: 5, ZonesAfter: 5},
				{Seq: 4, Time: time.Unix(1700000020, 0).UTC(), Table: "aux", Column: "w",
					Kind: obs.EventSkipperBuilt, Cause: "build",
					ZonesBefore: 2, ZonesAfter: 2},
			},
			ROI: []obs.ColumnROI{
				{Table: "aux", Column: "w", Kind: "static", Zones: 2, Bytes: 64,
					RowsSkipped: 100, CandidateRows: 400, ZoneProbes: 4, NetRows: 98},
				{Table: "data", Shard: 1, Column: "v", Kind: "adaptive", Zones: 5, Bytes: 160,
					RowsSkipped: 9000, RowsCovered: 100, BytesSkipped: 72000,
					CandidateRows: 10000, ZoneProbes: 50,
					MaintEvents: 2, MaintZones: 3, NetRows: 8758,
					DeadZones: 1, DeadZoneDetail: detail},
				{Table: "data", Shard: 2, Column: "v", Kind: "adaptive", Zones: 3, Bytes: 96,
					RowsSkipped: 1000, CandidateRows: 5000, ZoneProbes: 30, NetRows: 969},
			},
		}
	}
	return src
}

// TestAdaptationEndpointSchema golden-locks the /adaptation wire schema:
// the envelope, the event records, and the ROI rows. Additions require
// updating this test deliberately; renames and removals break any
// operator tooling scraping the ledger.
func TestAdaptationEndpointSchema(t *testing.T) {
	srv, err := Start("", adaptationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/adaptation")
	if code != http.StatusOK {
		t.Fatalf("/adaptation = %d, want 200\n%s", code, body)
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatalf("/adaptation: invalid JSON: %v\n%s", err, body)
	}
	wantEnvelope := []string{"dropped", "events", "roi", "total"}
	if got := sortedKeys(envelope); !equalStrings(got, wantEnvelope) {
		t.Fatalf("envelope keys = %v, want %v (schema is golden-locked)", got, wantEnvelope)
	}

	var events []map[string]json.RawMessage
	if err := json.Unmarshal(envelope["events"], &events); err != nil || len(events) != 3 {
		t.Fatalf("events: err=%v n=%d", err, len(events))
	}
	// The split record carries every field including the optional
	// shard/fingerprint stamps.
	wantEvent := []string{
		"cause", "column", "fingerprint", "kind", "max_after", "max_before",
		"min_after", "min_before", "row_hi", "row_lo", "seq", "shard",
		"table", "time", "zones_after", "zones_before",
	}
	if got := sortedKeys(events[0]); !equalStrings(got, wantEvent) {
		t.Fatalf("event keys = %v, want %v (schema is golden-locked)", got, wantEvent)
	}
	var kind string
	if err := json.Unmarshal(events[0]["kind"], &kind); err != nil || kind != "split" {
		t.Fatalf("event kind = %q (%v), want the string form \"split\"", kind, err)
	}

	var roi []map[string]json.RawMessage
	if err := json.Unmarshal(envelope["roi"], &roi); err != nil || len(roi) != 3 {
		t.Fatalf("roi: err=%v n=%d", err, len(roi))
	}
	// roi[1] is data/shard1 — the row with dead-zone detail, so it has
	// the full key set.
	wantROI := []string{
		"bytes", "bytes_skipped", "candidate_rows", "column", "dead_zone_detail",
		"dead_zones", "kind", "maintenance_events", "maintenance_zones",
		"net_benefit_rows", "rows_covered", "rows_skipped", "shard",
		"table", "zone_probes", "zones",
	}
	if got := sortedKeys(roi[1]); !equalStrings(got, wantROI) {
		t.Fatalf("roi keys = %v, want %v (schema is golden-locked)", got, wantROI)
	}
	var dead []map[string]json.RawMessage
	if err := json.Unmarshal(roi[1]["dead_zone_detail"], &dead); err != nil || len(dead) != 1 {
		t.Fatalf("dead_zone_detail: err=%v n=%d", err, len(dead))
	}
	if got, want := sortedKeys(dead[0]), []string{"heat", "hi", "lo", "max", "min"}; !equalStrings(got, want) {
		t.Fatalf("dead-zone keys = %v, want %v (schema is golden-locked)", got, want)
	}
}

// TestAdaptationFilters: ?table= and ?shard=N narrow both the event list
// and the ROI rows while total/dropped keep reporting the whole ledger.
func TestAdaptationFilters(t *testing.T) {
	srv, err := Start("", adaptationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	decode := func(query string) obs.AdaptationSnapshot {
		t.Helper()
		code, body := get(t, srv.URL()+"/adaptation"+query)
		if code != http.StatusOK {
			t.Fatalf("/adaptation%s = %d\n%s", query, code, body)
		}
		var snap obs.AdaptationSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	byTable := decode("?table=data")
	if len(byTable.Events) != 2 || len(byTable.ROI) != 2 {
		t.Fatalf("table=data: %d events / %d roi, want 2 / 2", len(byTable.Events), len(byTable.ROI))
	}
	for _, e := range byTable.Events {
		if e.Table != "data" {
			t.Fatalf("table filter leaked %+v", e)
		}
	}
	if byTable.Total != 5 || byTable.Dropped != 1 {
		t.Fatalf("filtered total/dropped = %d/%d, want the whole ledger 5/1", byTable.Total, byTable.Dropped)
	}

	byShard := decode("?shard=2")
	if len(byShard.Events) != 1 || byShard.Events[0].Kind != obs.EventTailFold {
		t.Fatalf("shard=2 events = %+v, want just the tail fold", byShard.Events)
	}
	if len(byShard.ROI) != 1 || byShard.ROI[0].Shard != 2 {
		t.Fatalf("shard=2 roi = %+v", byShard.ROI)
	}

	both := decode("?table=data&shard=1")
	if len(both.Events) != 1 || both.Events[0].Fingerprint == "" {
		t.Fatalf("table+shard events = %+v, want the fingerprinted split", both.Events)
	}

	// ?dead=0 keeps the dead-zone counts but drops the detail.
	noDetail := decode("?dead=0")
	for _, r := range noDetail.ROI {
		if r.DeadZoneDetail != nil {
			t.Fatalf("dead=0 still carries detail: %+v", r)
		}
		if r.Table == "data" && r.Shard == 1 && r.DeadZones != 1 {
			t.Fatalf("dead=0 lost the count: %+v", r)
		}
	}
}

// TestAdaptationBadParams: malformed or out-of-range filters are 400s —
// never 500s, never a silently empty 200.
func TestAdaptationBadParams(t *testing.T) {
	srv, err := Start("", adaptationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range []string{
		"?shard=abc", "?shard=0", "?shard=-1", "?shard=99",
		"?table=nope",
		"?dead=-1", "?dead=abc",
	} {
		if code, body := get(t, srv.URL()+"/adaptation"+q); code != http.StatusBadRequest {
			t.Errorf("/adaptation%s = %d, want 400\n%s", q, code, body)
		}
	}
}

// TestAdaptationNilSource: a server with no ledger serves an empty — but
// well-formed — snapshot, not a 500.
func TestAdaptationNilSource(t *testing.T) {
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/adaptation")
	if code != http.StatusOK {
		t.Fatalf("/adaptation = %d\n%s", code, body)
	}
	var snap obs.AdaptationSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Events == nil || snap.ROI == nil || len(snap.Events)+len(snap.ROI) != 0 {
		t.Fatalf("nil source snapshot = %+v, want empty arrays", snap)
	}
}
