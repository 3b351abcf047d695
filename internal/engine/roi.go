package engine

import (
	"sort"

	"adskip/internal/adaptive"
	"adskip/internal/obs"
)

// Shards is the number of shards an engine's table has: one.
func (e *Engine) Shards() int { return 1 }

// maintKinds are the records a skipper emits itself: its maintenance.
var maintKinds = [...]obs.EventKind{obs.EventSplit, obs.EventMerge, obs.EventTailFold, obs.EventDisable, obs.EventEnable}

// AdaptationROI assembles the table's per-column return-on-investment
// rows for /adaptation: the column's lifetime credit (rows pruned) against
// its debit (probes) in row-equivalents, netted by adaptive.Net, the
// charge arbitration steps by. The probe counters are the column's
// adskip_column_* series, the maintenance events its
// adskip_adapt_events_total of the maintKinds, and the maintenance zones
// are counted by its journal sink, so every counter in a row covers one
// lifetime, across rebuilds; the dead zones — zones whose heat is below
// the merge threshold — come from the skipper's snapshot.
// Dead zones are counted, and detailed up to maxDead entries per column
// (<= 0 omits the detail), so operators can see which row ranges carry
// metadata that earns nothing. Taken under the engine mutex, so the view
// is consistent with in-flight queries.
func (e *Engine) AdaptationROI(maxDead int) []obs.ColumnROI {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.skippers))
	for name := range e.skippers {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []obs.ColumnROI
	for _, name := range names {
		s := e.skippers[name]
		snap, ok := s.Introspect()
		if !ok {
			continue // this skipper keeps no accounts
		}
		col, err := e.tbl.Column(name)
		if err != nil {
			continue
		}
		md := s.Metadata()
		cm := e.colMetrics(name)
		skipped, probes := cm.rowsSkipped.Load(), cm.zonesProbed.Load()
		var maint int64
		for _, k := range maintKinds {
			if c := cm.events[k]; c != nil {
				maint += c.Load()
			}
		}
		roi := obs.ColumnROI{
			Table: e.tbl.Name(), Shard: e.opts.Shard, Column: name,
			Kind: md.Kind, Zones: md.Zones, Bytes: md.Bytes,
			RowsSkipped:   skipped,
			RowsCovered:   cm.coveredRows.Load(),
			CandidateRows: cm.candidateRows.Load(),
			// One code per row: the bytes a pruned scan never touched.
			BytesSkipped: skipped * int64(col.Vec().Width()),
			ZoneProbes:   probes,
			MaintEvents:  maint,
			MaintZones:   cm.maintZones,
			NetRows:      adaptive.Net(skipped, probes),
			DeadZones:    len(snap.DeadZones),
		}
		if maxDead > 0 && len(snap.DeadZones) > 0 {
			roi.DeadZoneDetail = snap.DeadZones[:min(maxDead, len(snap.DeadZones))]
		}
		out = append(out, roi)
	}
	return out
}
