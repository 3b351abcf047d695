package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
)

// shardCosts runs q as the scatter does — on every shard key-bound pruning
// keeps, each shard's engine stopping at its partial — and returns each
// predicate column's cost in every partial's trace, one row per shard.
func shardCosts(t *testing.T, m *Manager, q engine.Query) [][]obs.Cost {
	t.Helper()
	targets, _ := m.pruneShards(q.Where)
	var out [][]obs.Cost
	for _, ti := range targets {
		p, err := m.shards[ti].eng.QueryPartial(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var costs []obs.Cost
		for _, pt := range p.Trace().Predicates {
			costs = append(costs, pt.Cost)
		}
		out = append(out, costs)
	}
	return out
}

// checkTraceAddsShards holds a merged trace's per-predicate costs to the
// sums of a twin's shard partials for the same query, and returns those
// sums.
func checkTraceAddsShards(t *testing.T, name string, tr *obs.QueryTrace, shards [][]obs.Cost) []obs.Cost {
	t.Helper()
	sum := make([]obs.Cost, len(tr.Predicates))
	for _, costs := range shards {
		if len(costs) != len(sum) {
			t.Fatalf("%s: a shard traced %d predicate columns, the merge %d", name, len(costs), len(sum))
		}
		for i := range costs {
			sum[i].Add(costs[i])
		}
	}
	for i, pt := range tr.Predicates {
		if pt.Cost != sum[i] {
			t.Errorf("%s: predicate on %q merged %+v, shards add to %+v", name, pt.Column, pt.Cost, sum[i])
		}
	}
	return sum
}

// TestMergedTraceAddsShardTraces: a sharded query's trace adds its
// shards' per-predicate counts — zones probed, windows, covered windows,
// candidate rows, rows skipped and the why-not-skipped counts — and
// EXPLAIN ANALYZE's "not skipped" line prints that sum. A twin Manager,
// built from the same rows and given the same queries, runs each shard's
// partial of the query on its own.
func TestMergedTraceAddsShardTraces(t *testing.T) {
	rows := testRows(40000)
	var warm []engine.Query
	for lo := int64(0); lo < 40000; lo += 3000 {
		warm = append(warm, engine.Query{Where: expr.And(expr.MustPred("id", expr.Between, storage.IntValue(lo), storage.IntValue(lo+1800)))})
	}
	q := engine.Query{Where: expr.And(
		expr.MustPred("id", expr.Between, storage.IntValue(2600), storage.IntValue(37400)),
		expr.MustPred("price", expr.GE, storage.FloatValue(20)))}
	for _, mode := range []Mode{ModeHash, ModeRange} {
		for _, shards := range []int{2, 4} {
			name := fmt.Sprintf("%v/%d shards", mode, shards)
			m, twin := newManager(t, mode, shards, rows), newManager(t, mode, shards, rows)
			for _, w := range warm {
				if _, err := m.Query(w); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.Query(w); err != nil {
					t.Fatal(err)
				}
			}
			lines, res, err := m.ExplainAnalyze(q)
			if err != nil {
				t.Fatal(err)
			}
			per := shardCosts(t, twin, q)
			if len(per) < 2 {
				t.Fatalf("%s: the query reached %d shards, want several", name, len(per))
			}
			sum := checkTraceAddsShards(t, name, res.Trace, per)
			id := sum[0]
			notSkipped := id.NotSkippedOverlap + id.NotSkippedNullStraddle
			first := per[0][0].NotSkippedOverlap + per[0][0].NotSkippedNullStraddle
			if notSkipped <= first {
				t.Fatalf("%s: %d zones not skipped over all shards, %d on the first: the query does not tell a sum from the first shard", name, notSkipped, first)
			}
			want := fmt.Sprintf("  not skipped: %d zones — %d bounds-overlap, %d null-straddle",
				notSkipped, id.NotSkippedOverlap, id.NotSkippedNullStraddle)
			if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "\n"+want+"\n") {
				t.Errorf("%s: EXPLAIN ANALYZE lacks %q:\n%s", name, want, joined)
			}
		}
	}
}
