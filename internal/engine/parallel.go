package engine

import (
	"sync"

	"adskip/internal/core"
	"adskip/internal/faultinject"
	"adskip/internal/scan"
)

// Parallel scan execution for the COUNT fast path. Candidate windows are
// partitioned into contiguous groups of roughly equal row volume, one per
// worker; each worker runs the same kernels over its group and the
// partial counts and zone statistics merge losslessly (counting is
// associative, statistics are per candidate and kept in candidate order).
// Results are therefore bit-identical to the serial path.
//
// Every worker goroutine recovers its own panics into an error — panics
// cannot cross goroutines, so an unrecovered worker panic would kill the
// process. Workers also share the query's qctx: kernels run in
// checkpoint-sized chunks, and the first cancellation or budget failure
// latches so sibling workers abandon their slices at their next tick.

// minRowsPerWorker keeps tiny scans serial: goroutine fan-out only pays
// off when each worker gets substantial contiguous work.
const minRowsPerWorker = 1 << 16

// parallelCountFull counts matches over [0, n) with p workers.
func (e *Engine) parallelCountFull(qc *qctx, p *colPlan, n, workers int) (int, error) {
	codes := p.col.Vec()
	nulls := p.col.Nulls()
	count := func(lo, hi int) int {
		if p.pred.NullOnly {
			return scan.CountNulls(nulls, lo, hi)
		}
		return scan.Count(codes, lo, hi, p.pred.R, nulls, 0)
	}
	if workers <= 1 || n < minRowsPerWorker*2 {
		return countChunks(&ticker{qc: qc}, 0, n, count)
	}
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer recoverToError(&errs[w])
			if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
				panic(faultinject.PanicValue)
			}
			counts[w], errs[w] = countChunks(&ticker{qc: qc}, lo, hi, count)
		}(w, lo, hi)
	}
	wg.Wait()
	if err := firstWorkerError(errs); err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// zoneWork is one worker's slice of the candidate list.
type zoneWork struct {
	zones  []core.CandidateZone
	count  int
	zstats []core.ZoneStats
	stats  ExecStats
	err    error
}

// parallelCountZones executes the candidate zones across workers and
// returns the merged count, the statistics of the candidates that asked
// for them (in candidate order), and stats.
func (e *Engine) parallelCountZones(qc *qctx, p *colPlan, zones []core.CandidateZone, workers int) (int, []core.ZoneStats, ExecStats, error) {
	totalRows := 0
	for _, z := range zones {
		totalRows += z.Hi - z.Lo
	}
	if workers <= 1 || totalRows < minRowsPerWorker*2 {
		w := zoneWork{zones: zones}
		e.scanZoneGroup(qc, p, &w)
		return w.count, w.zstats, w.stats, w.err
	}
	// Partition candidates into contiguous groups of ~equal row volume.
	groups := make([]zoneWork, 0, workers)
	target := (totalRows + workers - 1) / workers
	start, acc := 0, 0
	for i, z := range zones {
		acc += z.Hi - z.Lo
		if acc >= target || i == len(zones)-1 {
			groups = append(groups, zoneWork{zones: zones[start : i+1]})
			start, acc = i+1, 0
		}
	}
	var wg sync.WaitGroup
	for g := range groups {
		wg.Add(1)
		go func(w *zoneWork) {
			defer wg.Done()
			defer recoverToError(&w.err)
			if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
				panic(faultinject.PanicValue)
			}
			e.scanZoneGroup(qc, p, w)
		}(&groups[g])
	}
	wg.Wait()
	errs := make([]error, len(groups))
	for g := range groups {
		errs[g] = groups[g].err
	}
	if err := firstWorkerError(errs); err != nil {
		return 0, nil, ExecStats{}, err
	}
	count := 0
	var zstats []core.ZoneStats
	var stats ExecStats
	for _, g := range groups {
		count += g.count
		zstats = append(zstats, g.zstats...)
		stats.RowsScanned += g.stats.RowsScanned
		stats.RowsCovered += g.stats.RowsCovered
	}
	return count, zstats, stats, nil
}

// scanZoneGroup runs the fast-count kernels over one group of candidate
// zones, accumulating into w. Counting kernels are chunked at checkpoint
// granularity; the statistics kernel runs whole-zone (its partitions must
// be exact) and ticks afterward — merges never grow a zone past
// adaptive.MaxZoneRows, so the overshoot is bounded too.
func (e *Engine) scanZoneGroup(qc *qctx, p *colPlan, w *zoneWork) {
	codes := p.col.Vec()
	nulls := p.col.Nulls()
	tk := &ticker{qc: qc}
	for _, c := range w.zones {
		switch {
		case c.Covered:
			w.count += c.Hi - c.Lo
			w.stats.RowsCovered += c.Hi - c.Lo
		case p.pred.NullOnly:
			m, err := countChunks(tk, c.Lo, c.Hi, func(lo, hi int) int {
				return scan.CountNulls(nulls, lo, hi)
			})
			if err != nil {
				w.err = err
				return
			}
			w.count += m
			w.stats.RowsScanned += c.Hi - c.Lo
		case c.StatParts > 0:
			m, parts := scan.CountStats(codes, c.Lo, c.Hi, p.pred.R, nulls, 0, c.StatParts)
			if err := tk.tick(c.Hi - c.Lo); err != nil {
				w.err = err
				return
			}
			w.count += m
			w.stats.RowsScanned += c.Hi - c.Lo
			w.zstats = append(w.zstats, core.ZoneStats{ID: c.ID, Parts: parts})
		default:
			m, err := countChunks(tk, c.Lo, c.Hi, func(lo, hi int) int {
				return scan.Count(codes, lo, hi, p.pred.R, nulls, 0)
			})
			if err != nil {
				w.err = err
				return
			}
			w.count += m
			w.stats.RowsScanned += c.Hi - c.Lo
		}
	}
}
