package shard

import (
	"fmt"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// FuzzShardedMatchesUnsharded holds what a sharded table does beyond its
// answers, which the torture oracle holds (FuzzTorture and the
// TestTorture_* families in the adskip package). The fuzzer picks the
// result shape, the predicate's bounds, the limit, the row count, the
// shard count and the partitioning. The merged trace's per-predicate
// costs are the sums of a twin's shard partials'. And the same rows
// appended in two batches, cut where the limit says, leave each shard's
// columns and log records as staging its own rows would
// (checkGatherMatchesStage).
func FuzzShardedMatchesUnsharded(f *testing.F) {
	for shape := uint8(0); shape < 8; shape++ {
		f.Add(shape, int16(100), int16(700), uint8(40), uint8(10), uint16(1000), uint8(shape%3), shape%2 == 0, shape%4 < 2)
	}
	f.Add(uint8(7), int16(100), int16(1500), uint8(0), uint8(5), uint16(2000), uint8(0), true, false)
	f.Add(uint8(1), int16(5000), int16(9000), uint8(0), uint8(0), uint16(300), uint8(2), false, false)
	f.Fuzz(func(t *testing.T, shape uint8, lo, hi int16, price, limit uint8, n uint16, shards uint8, hash, desc bool) {
		mode := ModeRange
		if hash {
			mode = ModeHash
		}
		all := testRows(1 + int(n%2000))
		m := newManager(t, mode, 2+int(shards%3), all)
		twin := newManager(t, mode, m.Shards(), all)
		q := engine.Query{Limit: int(limit % 64), OrderDesc: desc, Where: expr.And(
			expr.MustPred("id", expr.Between, storage.IntValue(int64(lo)), storage.IntValue(int64(hi))),
			expr.MustPred("price", expr.GE, storage.FloatValue(float64(price)/2.5)))}
		switch shape % 8 {
		case 0:
			q.Limit = 0
		case 1:
			q.Aggs = everyAgg
		case 2:
			q.GroupBy, q.Aggs = "city", everyAgg
		case 3:
			q.GroupBy, q.Aggs = "id", everyAgg
		case 4:
			q.Select, q.OrderBy = []string{"id", "price", "city"}, "id"
		case 5:
			q.Select, q.OrderBy = []string{"price"}, "price"
		case 6:
			q.Select = []string{"id", "city"}
		case 7:
			q.Select, q.Aggs = []string{"id", "city"}, everyAgg
		}
		name := fmt.Sprintf("%v %d shards %+v", mode, m.Shards(), q)
		got, err := m.Query(q)
		if err != nil {
			t.Fatalf("%s: sharded: %v", name, err)
		}
		checkTraceAddsShards(t, name, got.Trace, shardCosts(t, twin, q))
		cut := int(limit) * len(all) / 256
		checkGatherMatchesStage(t, mode, m.Shards(), "id", testSchema(), [][][]storage.Value{all[:cut], all[cut:]}, -1)
	})
}
