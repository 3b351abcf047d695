package engine

import (
	"context"
	"errors"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// The engine no longer records workload samples: the facade's front door
// builds one per logical query from the result's trace and stats alone.
// These tests pin the engine's half of that contract — every field the
// sample reads is on the result the engine returns.

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
// returns a trace stamped with that template, and the result carries the
// totals a workload sample is built from — latency, row accounting, zone
// reads (the active predicates' windows) vs prunes.
func TestWorkloadAttribution(t *testing.T) {
	e := workloadEngine(t, 4096, Options{Policy: PolicyAdaptive})

	// A partial-zone range: the matching zone cannot be covered, so rows
	// really scan (COUNT over a fully covered zone would short-circuit).
	const fp = "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?"
	ctx := obs.WithTemplate(context.Background(), fp)
	res, err := e.QueryContext(ctx, rangeQuery(10, 300))
	if err != nil || res.Count != 291 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
	tr := res.Trace
	if tr == nil || tr.Fingerprint != fp || tr.Table != "t" || tr.Total <= 0 {
		t.Fatalf("trace not attributed: %+v", tr)
	}
	zonesRead := 0
	for _, p := range tr.Predicates {
		if p.SkippersUsed > 0 {
			zonesRead += p.Windows
		}
	}
	if zonesRead == 0 || res.Stats.ZonesProbed < zonesRead {
		t.Fatalf("zone accounting: %d zones read of %d probed", zonesRead, res.Stats.ZonesProbed)
	}
	if res.Stats.RowsScanned == 0 || res.Stats.BytesScanned != res.Stats.RowsScanned*4 { // v stays a 4-byte code vector
		t.Fatalf("row accounting: %+v", res.Stats)
	}
	if len(tr.Shards) != 0 || tr.ShardsScanned != 0 {
		t.Fatalf("unsharded trace names shards: %+v", tr)
	}

	// Without a fingerprint on the context the trace carries none, and
	// the front door records nothing for it.
	res, err = e.QueryContext(context.Background(), rangeQuery(10, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Fingerprint != "" {
		t.Fatalf("unattributed query stamped %q", res.Trace.Fingerprint)
	}
}

// TestWorkloadErrorAttribution: a failed execution returns an error and no
// result, so its workload sample can hold no row or zone totals — only
// the call, the error and the latency. The engine counts it as canceled.
func TestWorkloadErrorAttribution(t *testing.T) {
	e := workloadEngine(t, 1024, Options{Policy: PolicyStatic, ZoneSize: 256})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx = obs.WithTemplate(ctx, "SELECT COUNT(*) FROM t WHERE v < ?")
	res, err := e.QueryContext(ctx, rangeQuery(0, 100))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("failed query returned a result: %+v", res)
	}
	if got := e.m.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestWorkloadCacheHitAttribution: the plan-cached context mark reaches
// the trace, which is where the template's cache-hit counter is read.
func TestWorkloadCacheHitAttribution(t *testing.T) {
	e := workloadEngine(t, 1024, Options{Policy: PolicyStatic, ZoneSize: 256})

	fp := "SELECT COUNT(*) FROM t WHERE v < ?"
	ctx := obs.WithTemplate(context.Background(), fp)
	res, err := e.QueryContext(ctx, rangeQuery(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.PlanCached {
		t.Fatal("first execution marked plan-cached")
	}
	res, err = e.QueryContext(obs.WithOrigin(context.Background(), obs.Origin{Fingerprint: fp, PlanCached: true}), rangeQuery(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.PlanCached || res.Trace.Fingerprint != fp {
		t.Fatalf("cached execution: plan-cached %v, fingerprint %q", res.Trace.PlanCached, res.Trace.Fingerprint)
	}
}
