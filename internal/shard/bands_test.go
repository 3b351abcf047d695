package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// A shard's zones follow its own value bands, not its load history. The
// table is loaded the way the served benchmark loads its 2-shard table, at
// a sixteenth of the scale: a lead batch of rows sampled at a fixed stride
// first (range sharding learns its bounds from it), then the rest in
// order. So each shard starts with about half a floor of scattered rows and
// every band edge after them falls off the MinZoneRows grid. Warmed with
// the same query stream as an unsharded twin loaded in order, the sharded
// table must then read at most 1.5x the twin's rows over a fixed stream of
// queries; zones stranded across two bands at the floor read ~8x. Counts
// rows, not time.
func TestShardZonesFollowBands(t *testing.T) {
	const (
		rows    = 1 << 16
		bands   = 256         // 256 rows each: four floors
		lead    = rows / 1024 // stride-sampled rows loaded first
		width   = rows / 100  // a 1% range of values
		texts   = 256
		warmup  = 2048
		measure = 512
	)
	cfg := engine.Options{Policy: engine.PolicyAdaptive, ZoneSize: 4096, MinZoneRows: 64}
	schema := table.Schema{{Name: "v", Type: storage.Int64}, {Name: "seq", Type: storage.Int64}}
	v := workload.Generate(workload.DataSpec{N: rows, Dist: workload.Clustered, Domain: rows, Clusters: bands, Seed: 1})
	row := func(i int) []storage.Value {
		return []storage.Value{storage.IntValue(v[i]), storage.IntValue(int64(i))}
	}

	tbl, err := table.New("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	twin := engine.New(tbl, cfg)
	m, err := New("t", schema, Options{Shards: 2, Key: "v", Mode: ModeRange, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var inOrder, leadRows, rest [][]storage.Value
	for i := range v {
		inOrder = append(inOrder, row(i))
		if i%(rows/lead) == 0 {
			leadRows = append(leadRows, row(i))
		} else {
			rest = append(rest, row(i))
		}
	}
	for _, err := range []error{
		twin.AppendRows(inOrder), twin.EnableSkipping("v"),
		m.AppendRows(leadRows), m.AppendRows(rest), m.EnableSkipping("v"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(2))
	queries := make([]engine.Query, texts)
	for i := range queries {
		lo := rng.Int63n(rows - width)
		queries[i] = engine.Query{Where: expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo), storage.IntValue(lo+width)))}
	}
	zipf := rand.NewZipf(rng, 1.2, 1, texts-1)
	var scanned [2]int
	for i := 0; i < warmup+measure; i++ {
		q := queries[zipf.Uint64()]
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("query %d: sharded count %d, twin %d", i, got.Count, want.Count)
		}
		if i >= warmup {
			scanned[0] += got.Stats.RowsScanned
			scanned[1] += want.Stats.RowsScanned
		}
	}
	t.Logf("rows scanned per query: sharded %d, unsharded twin %d", scanned[0]/measure, scanned[1]/measure)
	if 2*scanned[0] > 3*scanned[1] {
		t.Fatalf("the sharded table read %d rows where its unsharded twin read %d (%.1fx, limit 1.5x)",
			scanned[0], scanned[1], float64(scanned[0])/float64(scanned[1]))
	}
}

// TestEquidepthBoundsMatchSort: selecting each bound gives the codes a
// sort puts at the equi-depth ranks, on runs of equal codes, sorted and
// reversed input and random input, at every shard count used.
func TestEquidepthBoundsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]int64{}
	for _, n := range []int{16, 17, 100, 5000} {
		var dup, asc, desc, random []int64
		for i := 0; i < n; i++ {
			dup = append(dup, int64(rng.Intn(3)))
			asc = append(asc, int64(i))
			desc = append(desc, int64(n-i))
			random = append(random, rng.Int63()-rng.Int63())
		}
		inputs[fmt.Sprintf("dup/%d", n)], inputs[fmt.Sprintf("asc/%d", n)] = dup, asc
		inputs[fmt.Sprintf("desc/%d", n)], inputs[fmt.Sprintf("random/%d", n)] = desc, random
	}
	for name, codes := range inputs {
		sorted := slices.Clone(codes)
		slices.Sort(sorted)
		for shards := 2; shards <= 8; shards++ {
			got := equidepthBounds(slices.Clone(codes), shards)
			for i, b := range got {
				if want := sorted[(i+1)*len(sorted)/shards]; b != want {
					t.Fatalf("%s, %d shards: bound %d = %d, sorting gives %d", name, shards, i, b, want)
				}
			}
		}
	}
}
