package engine

import (
	"context"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func workloadEngine(tb testing.TB, n int64, opts Options) *Engine {
	tb.Helper()
	t := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := t.Column("v")
	for i := int64(0); i < n; i++ {
		col.AppendInt(i)
	}
	e := New(t, opts)
	if err := e.EnableSkipping("v"); err != nil {
		tb.Fatal(err)
	}
	return e
}

func rangeQuery(lo, hi int64) Query {
	return Query{
		Where: expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(lo), storage.IntValue(hi))),
		Aggs: []Agg{{Kind: CountStar}},
	}
}

// TestWorkloadAttribution: a query whose context carries a fingerprint
// is recorded against that template — latency, row accounting, zone
// reads vs prunes.
func TestWorkloadAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadEngine(t, 4096, Options{Policy: PolicyAdaptive, Stats: st})

	// A partial-zone range: the matching zone cannot be covered, so rows
	// really scan (COUNT over a fully covered zone would short-circuit).
	ctx := obs.WithTemplate(context.Background(), "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
	res, err := e.QueryContext(ctx, rangeQuery(10, 300))
	if err != nil || res.Count != 291 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
	ts, ok := st.Template("SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
	if !ok || ts.Calls != 1 {
		t.Fatalf("template not recorded: ok=%v %+v", ok, ts)
	}
	if ts.ZonesRead == 0 {
		t.Fatalf("zone accounting: %+v", ts)
	}
	if ts.RowsRead == 0 || ts.BytesScanned != ts.RowsRead*4 { // v stays a 4-byte code vector
		t.Fatalf("row accounting: %+v", ts)
	}
	if ts.Fingerprint != res.Trace.Fingerprint {
		t.Fatalf("trace fingerprint %q != template %q", res.Trace.Fingerprint, ts.Fingerprint)
	}

	// Without a fingerprint on the context nothing is recorded.
	if _, err := e.QueryContext(context.Background(), rangeQuery(10, 300)); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot("", 0); snap.Recorded != 1 {
		t.Fatalf("unattributed query was recorded: %+v", snap)
	}
}

// TestWorkloadErrorAttribution: failed executions count as errors on the
// template without polluting row/zone totals.
func TestWorkloadErrorAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadEngine(t, 1024, Options{Policy: PolicyStatic, StaticZoneSize: 256, Stats: st})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx = obs.WithTemplate(ctx, "SELECT COUNT(*) FROM t WHERE v < ?")
	if _, err := e.QueryContext(ctx, rangeQuery(0, 100)); err == nil {
		t.Fatal("want error from canceled context")
	}
	ts, ok := st.Template("SELECT COUNT(*) FROM t WHERE v < ?")
	if !ok || ts.Errors != 1 || ts.Calls != 1 {
		t.Fatalf("error attribution: ok=%v %+v", ok, ts)
	}
	if ts.RowsRead != 0 || ts.ZonesRead != 0 {
		t.Fatalf("error sample polluted scan totals: %+v", ts)
	}
}

// TestWorkloadCacheHitAttribution: the plan-cached context mark becomes
// the template's cache-hit counter.
func TestWorkloadCacheHitAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadEngine(t, 1024, Options{Policy: PolicyStatic, StaticZoneSize: 256, Stats: st})

	fp := "SELECT COUNT(*) FROM t WHERE v < ?"
	ctx := obs.WithTemplate(context.Background(), fp)
	if _, err := e.QueryContext(ctx, rangeQuery(0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryContext(obs.WithPlanCached(ctx), rangeQuery(0, 200)); err != nil {
		t.Fatal(err)
	}
	ts, _ := st.Template(fp)
	if ts.Calls != 2 || ts.CacheHits != 1 {
		t.Fatalf("cache hits = %d of %d calls, want 1 of 2", ts.CacheHits, ts.Calls)
	}
}

// BenchmarkQueryAttribution measures the full hot-path cost of workload
// analytics: the same engine query unattributed (stats off), with a
// stats table but no fingerprint (the one-nil-check bench path), and
// fully attributed (pprof labels + Record). The attributed/off delta is
// the documented overhead — it must stay under 1% of query latency.
func BenchmarkQueryAttribution(b *testing.B) {
	const n = 1 << 18
	q := rangeQuery(0, n/16)
	run := func(b *testing.B, e *Engine, ctx context.Context) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryContext(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		e := workloadEngine(b, n, Options{Policy: PolicyStatic, StaticZoneSize: 4096})
		run(b, e, context.Background())
	})
	b.Run("enabled-unattributed", func(b *testing.B) {
		e := workloadEngine(b, n, Options{Policy: PolicyStatic, StaticZoneSize: 4096, Stats: stats.New(stats.Options{})})
		run(b, e, context.Background())
	})
	b.Run("attributed", func(b *testing.B) {
		e := workloadEngine(b, n, Options{Policy: PolicyStatic, StaticZoneSize: 4096, Stats: stats.New(stats.Options{})})
		ctx := obs.WithTemplate(context.Background(), "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
		run(b, e, ctx)
	})
}

// TestByteReportsFollowCodeWidth: the two byte figures derived from row
// counts — a template's bytes scanned and a column's bytes skipped — charge
// the column's physical code width: 4 bytes while every value fits 32 bits,
// 8 once one row (outside every query's range here) does not.
func TestByteReportsFollowCodeWidth(t *testing.T) {
	const fp = "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?"
	for _, tc := range []struct {
		name    string
		outlier int64
		width   int64
	}{{"narrow", 1 << 31, 4}, {"wide", 1 << 32, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			st := stats.New(stats.Options{})
			tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
			col, _ := tbl.Column("v")
			for i := int64(0); i < 1<<14; i++ {
				col.AppendInt(i)
			}
			col.AppendInt(tc.outlier)
			e := New(tbl, Options{Policy: PolicyAdaptive, Stats: st, Adaptive: adaptive.Config{InitialZoneRows: 4096, MinZoneRows: 64}})
			if err := e.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			ctx := obs.WithTemplate(context.Background(), fp)
			for i := 0; i < 12; i++ {
				if res, err := e.QueryContext(ctx, rangeQuery(5000, 5200)); err != nil || res.Count != 201 {
					t.Fatalf("count=%d err=%v", res.Count, err)
				}
			}
			ts, _ := st.Template(fp)
			if ts.RowsRead == 0 || ts.BytesScanned != ts.RowsRead*tc.width {
				t.Fatalf("bytes scanned %d for %d rows read, want %d a row", ts.BytesScanned, ts.RowsRead, tc.width)
			}
			rois := e.AdaptationROI(0)
			if len(rois) != 1 || rois[0].RowsSkipped == 0 || rois[0].BytesSkipped != rois[0].RowsSkipped*tc.width {
				t.Fatalf("ROI %+v, want bytes skipped = rows skipped x %d", rois, tc.width)
			}
		})
	}
}
