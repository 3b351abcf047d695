package health

import (
	"time"

	"adskip/internal/obs"
)

// Window bookkeeping. The monitor retains one cumulative tickPoint per
// sampler tick in a bounded ring sized to the long window plus one, so
// any window's aggregate is the delta between the newest point and the
// point w ticks back — no per-window accumulators to keep in sync.

// tickPoint is the cumulative counter state at one sampler tick, plus
// the instantaneous queue depth.
type tickPoint struct {
	time    time.Time
	queries int64
	errors  int64
	skipped int64
	scanned int64
	queue   int64
	walLag  float64
	skipReg float64
	buckets []int64 // cumulative latency histogram; slot slice is reused
}

// set copies s into the point, reusing the point's bucket backing array
// so a warm ring (whose Push hands back the evicted point) allocates
// nothing per tick.
func (p *tickPoint) set(s *obs.HistorySample) {
	p.time = s.Time
	p.queries = s.Queries
	p.errors = s.Errors
	p.skipped = s.RowsSkipped
	p.scanned = s.RowsScanned
	p.queue = s.QueueDepth
	p.walLag = s.WALLagSeconds
	p.skipReg = s.SkipRegression
	p.buckets = append(p.buckets[:0], s.LatencyBuckets...)
}

// span returns the newest point and the point w ticks behind it (clamped
// to the oldest retained), so the pair's deltas aggregate the last
// min(w, n-1) ticks. Returns false until two points exist.
func span(r *obs.Ring[tickPoint], w int) (now, then *tickPoint, ok bool) {
	n := r.Len()
	if n < 2 {
		return nil, nil, false
	}
	if w > n-1 {
		w = n - 1
	}
	return r.At(0), r.At(w), true
}

// counts tallies bad and with-data ticks over the last w verdicts of one
// objective's per-tick verdict ring: +1 bad, 0 good, -1 no data.
func counts(r *obs.Ring[int8], w int) (bad, data int) {
	if n := r.Len(); w > n {
		w = n
	}
	for back := 0; back < w; back++ {
		switch *r.At(back) {
		case 1:
			bad++
			data++
		case 0:
			data++
		}
	}
	return bad, data
}
