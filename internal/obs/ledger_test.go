package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestLedgerAppendStampsAndRetains(t *testing.T) {
	l := NewLedger(8)
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventSplit,
		Cause: "split-gain", Fingerprint: "select count(*) from data where v between ? and ?",
		ZonesBefore: 4, ZonesAfter: 5, RowLo: 0, RowHi: 1024})
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventTailFold,
		Cause: "append-fold", ZonesBefore: 5, ZonesAfter: 6,
		MinBefore: 10, MaxBefore: 20, MinAfter: 10, MaxAfter: 99})

	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("Records() = %d records, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("seq stamps = %d, %d, want 1, 2", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].Time.IsZero() || recs[1].Time.IsZero() {
		t.Fatal("append did not stamp times")
	}
	if recs[1].Time.Before(recs[0].Time) {
		t.Fatal("records not in chronological order")
	}
	if l.Dropped() != 0 {
		t.Fatalf("Dropped() = %d with a non-full ring", l.Dropped())
	}
}

// TestLedgerEvictionKeepsSeqAndTotals: what the ledger adds on top of
// Ring (whose wrap arithmetic TestRing covers) — retained records keep
// the seq stamped at append, and the per-table totals keep counting
// records the ring has since evicted.
func TestLedgerEvictionKeepsSeqAndTotals(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventSplit, Cause: "split-gain"})
	}
	recs := l.Records()
	if len(recs) != 4 || recs[0].Seq != 7 || recs[3].Seq != 10 {
		t.Fatalf("retained %d records spanning seq %d..%d, want 4 spanning 7..10",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
	if l.Seq() != 10 || l.Dropped() != 6 {
		t.Fatalf("Seq/Dropped = %d/%d, want 10/6", l.Seq(), l.Dropped())
	}
	if tot := l.Totals("data"); tot.Events != 10 || tot.Splits != 10 {
		t.Fatalf("totals = %+v, want all 10 appends folded in despite eviction", tot)
	}
}

func TestLedgerTotalsFoldAtAppend(t *testing.T) {
	l := NewLedger(0)
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventSplit, Cause: "split-gain",
		Fingerprint: "q-template-1"})
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventTailFold, Cause: "append-fold"})
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventSplit, Cause: "split-gain"})
	l.Append(LedgerRecord{Table: "other", Column: "w", Kind: EventSkipperBuilt, Cause: "build"})

	tot := l.Totals("data")
	if tot.Events != 3 || tot.Splits != 2 {
		t.Fatalf("data totals = %d events / %d splits, want 3 / 2", tot.Events, tot.Splits)
	}
	// The second split had no fingerprint, so its cause wins.
	if tot.LastSplitCause != "split-gain" {
		t.Fatalf("LastSplitCause = %q, want cause fallback %q", tot.LastSplitCause, "split-gain")
	}
	if tot.LastSplit.IsZero() {
		t.Fatal("LastSplit not stamped")
	}
	if ot := l.Totals("other"); ot.Events != 1 || ot.Splits != 0 {
		t.Fatalf("other totals = %+v, want 1 event, 0 splits", ot)
	}
	if none := l.Totals("absent"); none.Events != 0 {
		t.Fatalf("absent table totals = %+v, want zero value", none)
	}
}

func TestLedgerTotalsPreferFingerprint(t *testing.T) {
	l := NewLedger(0)
	l.Append(LedgerRecord{Table: "data", Column: "v", Kind: EventSplit, Cause: "split-gain",
		Fingerprint: "select * from data where v = ?"})
	if got := l.Totals("data").LastSplitCause; got != "select * from data where v = ?" {
		t.Fatalf("LastSplitCause = %q, want the triggering fingerprint", got)
	}
}

// TestLedgerRecordGoldenJSON locks the wire schema of one ledger record
// — the /adaptation events array is built from these. Additions are
// fine; renames and removals break dashboards.
func TestLedgerRecordGoldenJSON(t *testing.T) {
	r := LedgerRecord{Seq: 7, Table: "data", Column: "v", Shard: 2,
		Kind: EventSplit, Cause: "split-gain", Fingerprint: "fp",
		ZonesBefore: 4, ZonesAfter: 5, RowLo: 0, RowHi: 1024,
		MinBefore: 1, MaxBefore: 9, MinAfter: 1, MaxAfter: 9}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":7,"time":"0001-01-01T00:00:00Z","table":"data","column":"v",` +
		`"shard":2,"kind":"split","cause":"split-gain","fingerprint":"fp",` +
		`"zones_before":4,"zones_after":5,"row_lo":0,"row_hi":1024,` +
		`"min_before":1,"max_before":9,"min_after":1,"max_after":9}`
	if string(b) != want {
		t.Fatalf("ledger record JSON drifted:\n got %s\nwant %s", b, want)
	}
}

func TestLedgerRecordString(t *testing.T) {
	r := LedgerRecord{Seq: 3, Table: "data", Column: "v", Kind: EventSplit,
		Cause: "split-gain", ZonesBefore: 4, ZonesAfter: 5}
	s := r.String()
	for _, frag := range []string{"#3", "data.v", "split", "cause=split-gain", "4->5"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q, missing %q", s, frag)
		}
	}
}

// TestLedgerChurnRace hammers one ledger from concurrent writers and
// readers. Run under -race in CI it proves the mutex discipline; run
// plain it still checks drop accounting under contention.
func TestLedgerChurnRace(t *testing.T) {
	l := NewLedger(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(LedgerRecord{Table: "data", Column: "v",
					Kind: EventSplit, Cause: "split-gain", Shard: w + 1})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = l.Records()
					_ = l.Totals("data")
					_ = l.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const appended = writers * perWriter
	if l.Seq() != appended {
		t.Fatalf("Seq() = %d, want %d", l.Seq(), appended)
	}
	if got := l.Dropped(); got != appended-64 {
		t.Fatalf("Dropped() = %d, want %d", got, appended-64)
	}
	if tot := l.Totals("data"); tot.Events != appended || tot.Splits != appended {
		t.Fatalf("totals = %d events / %d splits, want %d / %d", tot.Events, tot.Splits, appended, appended)
	}
	recs := l.Records()
	if len(recs) != 64 {
		t.Fatalf("retained %d, want 64", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("retained records out of order at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}
