package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/storage"
)

// TestConcurrentQueriesAndMutations hammers one engine from many
// goroutines (run under -race in CI): queries and appends interleave
// while adaptive metadata reshapes. Correctness of counts is
// checked against a quiesced final state.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	tb := buildTable(t, 2000, 80)
	e := newEngine(t, tb, PolicyAdaptive)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					_ = e.AppendRow(storage.IntValue(rng.Int63n(5000)), storage.IntValue(1),
						storage.FloatValue(1), storage.StringValue("ant"))
				default:
					lo := rng.Int63n(2000)
					_, err := e.Query(Query{
						Where: expr.And(intPred("a", expr.Between, lo, lo+100)),
						Aggs:  []Agg{{Kind: CountStar}},
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Quiesced: engine result matches a naive count.
	res, err := e.Query(Query{Where: expr.And(intPred("a", expr.GE, 0)), Aggs: []Agg{{Kind: CountStar}}})
	if err != nil {
		t.Fatal(err)
	}
	colA, _ := tb.Column("a")
	want := 0
	for i := 0; i < colA.Len(); i++ {
		if !colA.IsNull(i) && colA.Value(i).Int() >= 0 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

// TestConcurrentCancellationAndMutations adds the resilience layer to the
// concurrency hammer: appenders race against queries issued
// with very short deadlines. Queries may complete or report ErrCanceled /
// ErrBudget — any other error, any wrong quiesced count, or any race
// (under -race) fails the test.
func TestConcurrentCancellationAndMutations(t *testing.T) {
	tb := buildTable(t, 2000, 81)
	e := newEngine(t, tb, PolicyAdaptive)
	e.opts.Limits = Limits{MaxDuration: 20 * time.Millisecond}

	restore := faultinject.Activate(faultinject.New(6).
		Set(faultinject.ScanDelay, faultinject.Rule{Prob: 0.05, Delay: 200 * time.Microsecond}))
	defer restore()

	var wg sync.WaitGroup
	var canceled, completed int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					_ = e.AppendRow(storage.IntValue(rng.Int63n(5000)), storage.IntValue(1),
						storage.FloatValue(1), storage.StringValue("ant"))
				default:
					lo := rng.Int63n(2000)
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(rng.Intn(2000))*time.Microsecond)
					_, err := e.QueryContext(ctx, Query{
						Where: expr.And(intPred("a", expr.Between, lo, lo+100)),
						Aggs:  []Agg{{Kind: CountStar}},
					})
					cancel()
					mu.Lock()
					switch {
					case err == nil:
						completed++
					case errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudget):
						canceled++
					default:
						t.Errorf("unexpected error: %v", err)
					}
					mu.Unlock()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("cancellation hammer: %d completed, %d cut off", completed, canceled)

	// Quiesced correctness after all the interrupted scans.
	res, err := e.Query(Query{Where: expr.And(intPred("a", expr.GE, 0)), Aggs: []Agg{{Kind: CountStar}}})
	if err != nil {
		t.Fatal(err)
	}
	colA, _ := tb.Column("a")
	want := 0
	for i := 0; i < colA.Len(); i++ {
		if !colA.IsNull(i) && colA.Value(i).Int() >= 0 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

// TestConcurrentQuarantineMidStream corrupts adaptive metadata while
// concurrent readers and writers are active: the quarantine transition
// must be atomic under -race, every completed query correct, and
// EnableSkipping at the end restores skipping.
func TestConcurrentQuarantineMidStream(t *testing.T) {
	tb := buildTable(t, 4000, 82)
	e := newEngine(t, tb, PolicyAdaptive)
	reference := New(tb, Options{Policy: PolicyNone})

	// InvariantFlip corrupts the zone layout inside Observe at a low rate;
	// racing goroutines then hit the quarantine path concurrently.
	restore := faultinject.Activate(faultinject.New(9).
		Set(faultinject.InvariantFlip, faultinject.Rule{Prob: 0.02}))
	defer restore()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				if rng.Intn(12) == 0 {
					_ = e.AppendRow(storage.IntValue(rng.Int63n(5000)), storage.IntValue(1),
						storage.FloatValue(1), storage.StringValue("ant"))
					continue
				}
				lo := rng.Int63n(2000)
				q := Query{
					Where: expr.And(intPred("a", expr.Between, lo, lo+150)),
					Aggs:  []Agg{{Kind: CountStar}},
				}
				if _, err := e.Query(q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: compare against the no-skipping reference on the final
	// table state (reference shares the table, so counts must agree).
	for _, lo := range []int64{0, 500, 1500} {
		q := Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+400)),
			Aggs:  []Agg{{Kind: CountStar}},
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("lo=%d: count=%d want %d", lo, got.Count, want.Count)
		}
	}

	if dropped := droppedOf(e, "a"); len(dropped) > 0 {
		if err := e.EnableSkipping(dropped...); err != nil {
			t.Fatal(err)
		}
		if len(droppedOf(e, "a")) != 0 {
			t.Fatal("EnableSkipping did not restore the skipper")
		}
	}
	t.Logf("mid-stream quarantine events: %d", quarantineEvents(e))
}
