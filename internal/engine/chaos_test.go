package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"adskip/internal/expr"
	"adskip/internal/faultinject"
)

// TestChaosQueryStream drives a mixed query stream through an adaptive
// engine while every fault point fires probabilistically: worker panics,
// invariant flips in Observe, and injected scan delays. Every result is
// checked against a no-skipping reference engine on the same table. The
// process must not crash and no query may return a wrong answer — faults
// may only cost performance (quarantine → full scan) or, for the delay
// point, an ErrCanceled under a deadline. The table is past
// 2*minRowsPerWorker rows, so a scan of the unskippable column b fans out
// to workers and the worker-panic point fires: at least one worker panic
// must be recovered.
func TestChaosQueryStream(t *testing.T) {
	tb := buildTable(t, chaosRows, 21)
	chaotic := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts, Parallelism: 4})
	if err := chaotic.EnableSkipping("a", "b"); err != nil {
		t.Fatal(err)
	}
	reference := New(tb, Options{Policy: PolicyNone})

	restore := faultinject.Activate(faultinject.New(99).
		Set(faultinject.WorkerPanic, faultinject.Rule{Prob: 0.02}).
		Set(faultinject.InvariantFlip, faultinject.Rule{Prob: 0.05}).
		Set(faultinject.ScanDelay, faultinject.Rule{Prob: 0.01, Delay: 100 * time.Microsecond}))
	defer restore()

	rng := rand.New(rand.NewSource(77))
	rebuilds := 0
	for q := 0; q < 300; q++ {
		col := "a"
		if rng.Intn(2) == 1 {
			col = "b"
		}
		lo := rng.Int63n(900)
		query := Query{
			Where: expr.And(intPred(col, expr.Between, lo, lo+rng.Int63n(300))),
			Aggs:  []Agg{{Kind: CountStar}},
		}
		got, err := chaotic.Query(query)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		want, err := reference.Query(query)
		if err != nil {
			t.Fatalf("query %d reference: %v", q, err)
		}
		if got.Count != want.Count {
			t.Fatalf("query %d (%s in [%d,..]): count=%d want %d", q, col, lo, got.Count, want.Count)
		}
		// Periodically rebuild dropped skippers so the stream keeps
		// exercising the skipping path, not just full-scan fallback.
		if dropped := droppedOf(chaotic, "a", "b"); q%60 == 59 && len(dropped) > 0 {
			if err := chaotic.EnableSkipping(dropped...); err != nil {
				t.Fatalf("query %d rebuild: %v", q, err)
			}
			rebuilds++
		}
	}
	t.Logf("chaos stream done: %d quarantine events, %d rebuild rounds, %d retries, %d recovered panics",
		quarantineEvents(chaotic), rebuilds, chaotic.m.retries.Load(), chaotic.m.panics.Load())
	if chaotic.m.panics.Load() == 0 {
		t.Fatal("no worker panic was recovered: the scans never fanned out")
	}
}

// chaosRows sizes the chaos tables past 2*minRowsPerWorker, the smallest
// scan the COUNT driver splits among workers.
const chaosRows = 2*minRowsPerWorker + 8192

// droppedOf returns the columns among cols that have no skipper: their
// skippers were dropped after a fault.
func droppedOf(e *Engine, cols ...string) []string {
	var out []string
	for _, c := range cols {
		if e.Skipper(c) == nil {
			out = append(out, c)
		}
	}
	return out
}

// TestChaosWithDeadlines mixes injected delays with tight context
// deadlines: queries either succeed with the right answer or fail with
// ErrCanceled — never a wrong answer, never a crash. It queries the
// unskippable column b, whose scans fan out to workers.
func TestChaosWithDeadlines(t *testing.T) {
	tb := buildTable(t, chaosRows, 22)
	e := New(tb, Options{
		Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts, Parallelism: 2,
	})
	if err := e.EnableSkipping("b"); err != nil {
		t.Fatal(err)
	}
	reference := New(tb, Options{Policy: PolicyNone})

	restore := faultinject.Activate(faultinject.New(4).
		Set(faultinject.ScanDelay, faultinject.Rule{Prob: 0.3, Delay: 300 * time.Microsecond}).
		Set(faultinject.WorkerPanic, faultinject.Rule{Prob: 0.01}))
	defer restore()

	rng := rand.New(rand.NewSource(8))
	ok, cut := 0, 0
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(900)
		query := Query{
			Where: expr.And(intPred("b", expr.Between, lo, lo+200)),
			Aggs:  []Agg{{Kind: CountStar}},
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3000))*time.Microsecond)
		got, err := e.QueryContext(ctx, query)
		cancel()
		switch {
		case err == nil:
			want, rerr := reference.Query(query)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if got.Count != want.Count {
				t.Fatalf("query %d: count=%d want %d", q, got.Count, want.Count)
			}
			ok++
		case errors.Is(err, ErrCanceled):
			cut++
		default:
			t.Fatalf("query %d: unexpected error %v", q, err)
		}
	}
	t.Logf("deadline chaos: %d completed, %d cut off, %d recovered panics", ok, cut, e.m.panics.Load())
}
