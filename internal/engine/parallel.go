package engine

import (
	"sync"

	"adskip/internal/core"
	"adskip/internal/faultinject"
	"adskip/internal/scan"
)

// Parallel scan execution for the COUNT fast path. A full scan is one
// candidate spanning the table. The candidates are partitioned into
// contiguous groups of roughly equal row volume, one per worker: a group
// boundary may cut a plain candidate in two, but a candidate that asks for
// statistics goes whole to one worker. Each worker runs the same kernels
// over its group and the partial counts and zone statistics merge
// losslessly (counting is associative, statistics are per candidate and
// kept in candidate order). Results are therefore bit-identical to the
// serial path.
//
// Every worker goroutine recovers its own panics into an error — panics
// cannot cross goroutines, so an unrecovered worker panic would kill the
// process. Workers also share the query's qctx: kernels run in
// checkpoint-sized chunks, and the first cancellation or budget failure
// latches so sibling workers abandon their slices at their next tick.

// minRowsPerWorker keeps tiny scans serial: goroutine fan-out only pays
// off when each worker gets substantial contiguous work.
const minRowsPerWorker = 1 << 16

// zoneWork is one worker's slice of the candidate list.
type zoneWork struct {
	zones  []core.CandidateZone
	count  int
	zstats []core.ZoneStats
	stats  ExecStats
	err    error
}

// parallelCountZones executes the candidate zones across workers and
// returns the merged count and stats, and the statistics of the candidates
// that asked for them, in candidate order.
func (e *Engine) parallelCountZones(qc *qctx, p *colPlan, zones []core.CandidateZone, workers int) (out zoneWork) {
	totalRows := 0
	for _, z := range zones {
		totalRows += z.Hi - z.Lo
	}
	if workers <= 1 || totalRows < minRowsPerWorker*2 {
		e.scanZoneGroup(qc, p, zones, &out)
		return out
	}
	groups := partition(zones, totalRows, workers)
	var wg sync.WaitGroup
	for g := range groups {
		wg.Add(1)
		go func(w *zoneWork) {
			defer wg.Done()
			defer recoverToError(&w.err)
			if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
				panic(faultinject.PanicValue)
			}
			e.scanZoneGroup(qc, p, w.zones, w)
		}(&groups[g])
	}
	wg.Wait()
	errs := make([]error, len(groups))
	for g, w := range groups {
		errs[g] = w.err
		out.count += w.count
		out.zstats = append(out.zstats, w.zstats...)
		out.stats.Add(w.stats)
	}
	if err := firstWorkerError(errs); err != nil {
		return zoneWork{err: err}
	}
	return out
}

// partition cuts zones, which hold total rows, into at most workers
// contiguous groups in candidate order, each closing once it holds its
// share of the rows not yet handed out. A plain candidate that straddles a
// share's end is cut there, into two pieces; a candidate with StatParts > 0
// is never cut. The groups' zones are copies, so zones itself is not kept.
func partition(zones []core.CandidateZone, total, workers int) []zoneWork {
	pieces := make([]core.CandidateZone, 0, len(zones)+workers-1)
	groups := make([]zoneWork, 0, workers)
	start, closed, acc := 0, 0, 0 // open group's first piece; rows in closed groups; rows handed out
	for _, z := range zones {
		for {
			left := workers - len(groups)
			end := closed + (total-closed+left-1)/left // rows through the open group
			piece := z
			if cut := z.Lo + end - acc; z.StatParts == 0 && cut < z.Hi {
				piece.Hi = cut
			}
			pieces = append(pieces, piece)
			acc += piece.Hi - piece.Lo
			if acc >= end && left > 1 {
				groups = append(groups, zoneWork{zones: pieces[start:]})
				start, closed = len(pieces), acc
			}
			if piece.Hi == z.Hi {
				break
			}
			z.Lo = piece.Hi
		}
	}
	if start < len(pieces) {
		groups = append(groups, zoneWork{zones: pieces[start:]})
	}
	return groups
}

// scanZoneGroup runs the fast-count kernels over one group of candidate
// zones, accumulating into w. (zones is a parameter, not read from w, so a
// serial scan's candidate list stays off the heap.) Counting kernels are chunked at checkpoint
// granularity; the statistics kernel runs whole-zone (its partitions must
// be exact) and ticks afterward — merges never grow a zone past
// adaptive.MaxZoneRows, so the overshoot is bounded too.
func (e *Engine) scanZoneGroup(qc *qctx, p *colPlan, zones []core.CandidateZone, w *zoneWork) {
	codes := p.col.Vec()
	nulls := p.col.Nulls()
	tk := &ticker{qc: qc}
	for _, c := range zones {
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
