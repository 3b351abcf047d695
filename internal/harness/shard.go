package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"adskip/internal/engine"
	"adskip/internal/shard"
	"adskip/internal/storage"
	"adskip/internal/workload"
)

// Ext3Sharded is an extension beyond the paper: sharded scatter-gather
// execution with shard-level pruning. Each shard owns an adaptive
// zonemap over its key range, and the manager prunes whole shards by
// key bounds before any zone is probed — data skipping one level up.
// The experiment runs a hot-range COUNT(*) stream (skew concentrates
// queries on few shards, so shard pruning bites) and a concurrent
// batched-append stream (per-shard append locks let writers
// parallelize) across shard counts.
func Ext3Sharded(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID: "ext3",
		Title: fmt.Sprintf("sharded scatter-gather with shard pruning, N=%d, hot-range 1%% (GOMAXPROCS=%d)",
			cfg.Rows, runtime.GOMAXPROCS(0)),
		Header: []string{"shards", "query median", "speedup", "shards scanned/query",
			"shards pruned/query", "append rows/s (4 writers)", "append speedup"},
	}
	vals := generate(cfg, workload.Clustered, 4096)
	genSpec := workload.QuerySpec{
		Kind: workload.HotRange, Domain: int64(cfg.Rows), Selectivity: 0.01,
		HotFrac: 0.9, Seed: cfg.Seed + 40,
	}
	eo := cfg.options(engine.PolicyAdaptive)
	build := func(shards int) (querier, error) {
		if shards <= 1 {
			return newEngine(eo, vals), nil
		}
		m, err := shard.NewFromTable(newTable(vals), shard.Options{
			Shards: shards, Key: "v", Mode: shard.ModeRange, Engine: eo,
		})
		if err != nil {
			return nil, err
		}
		return m, m.EnableSkipping("v")
	}

	var base, baseAppend float64
	for _, shards := range []int{1, 2, 4, 8} {
		q, err := build(shards)
		if err != nil {
			return nil, err
		}
		sr, err := runStream(q, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		scanned, pruned := sr.stats.ShardsScanned, sr.stats.ShardsPruned
		if shards <= 1 {
			// The unsharded engine reports no shard stats; one "shard" is
			// always scanned.
			scanned, pruned = cfg.Queries, 0
		}
		med := sr.medianNs(cfg.Queries/2, cfg.Queries)
		rps, err := appendThroughput(shards, eo, cfg)
		if err != nil {
			return nil, err
		}
		if shards <= 1 {
			base, baseAppend = med, rps
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			fmtNs(med),
			fmt.Sprintf("%.2fx", base/med),
			fmt.Sprintf("%.2f", float64(scanned)/float64(cfg.Queries)),
			fmt.Sprintf("%.2f", float64(pruned)/float64(cfg.Queries)),
			fmt.Sprintf("%.0f", rps),
			fmt.Sprintf("%.2fx", rps/baseAppend),
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: shard pruning is zone pruning one level up — per-shard key bounds eliminate whole shards before any zone is probed",
		"shards pruned/query > 0 demonstrates shard pruning is active on the skewed stream",
		"appends route by shard key and take per-shard locks, so concurrent writers parallelize; on a single-core host append scaling is necessarily flat")
	return t, nil
}

// appendThroughput measures batched concurrent ingest: 4 writers append
// disjoint batches as fast as they can; returns rows per second.
func appendThroughput(shards int, eo engine.Options, cfg Config) (float64, error) {
	const writers = 4
	rows := cfg.Rows / 4
	if rows > 1<<18 {
		rows = 1 << 18
	}
	perWriter := rows / writers
	tbl := newTable(nil)
	var dst interface {
		AppendRows(rows [][]storage.Value) error
	}
	if shards <= 1 {
		dst = engine.New(tbl, eo)
	} else {
		m, err := shard.NewFromTable(tbl, shard.Options{
			Shards: shards, Key: "v", Mode: shard.ModeRange, Engine: eo,
		})
		if err != nil {
			return 0, err
		}
		dst = m
	}
	const batch = 8192
	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([][]storage.Value, 0, batch)
			for i := 0; i < perWriter; i++ {
				// Writer-interleaved keys spread every batch across shards.
				buf = append(buf, []storage.Value{storage.IntValue(int64(w + i*writers))})
				if len(buf) == batch || i == perWriter-1 {
					if err := dst.AppendRows(buf); err != nil {
						errs[w] = err
						return
					}
					buf = buf[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(writers*perWriter) / elapsed, nil
}
