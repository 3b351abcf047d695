package engine

import (
	"sort"

	"adskip/internal/obs"
)

// Skipmap assembles the table's skipping-effectiveness snapshot for the
// telemetry server's /skipmap endpoint: per-column structure state,
// quarantine status, cumulative prune counters, and (for introspectable
// skippers) per-zone detail — oldest row range first — capped at maxZones
// entries per column (maxZones <= 0 returns every zone). The snapshot is
// taken under the engine mutex, so it is consistent with respect to
// in-flight queries.
func (e *Engine) Skipmap(maxZones int) obs.SkipmapTable {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := obs.SkipmapTable{Table: e.tbl.Name(), Rows: e.tbl.NumRows()}

	names := make([]string, 0, len(e.skippers)+len(e.quarantined))
	for name := range e.skippers {
		names = append(names, name)
	}
	for name := range e.quarantined {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		sc := obs.SkipmapColumn{Column: name}
		if rec, ok := e.quarantined[name]; ok {
			sc.Quarantined = true
			if rec.cause != nil {
				sc.Quarantine = rec.cause.Error()
			}
		}
		if s, ok := e.skippers[name]; ok {
			md := s.Metadata()
			sc.Kind, sc.Zones, sc.Bytes, sc.Enabled = md.Kind, md.Zones, md.Bytes, md.Enabled
			sc.ZoneDetail = s.Introspect().Zones
			if n := len(sc.ZoneDetail); maxZones > 0 && n > maxZones {
				sc.ZoneDetail, sc.ZonesTruncated = sc.ZoneDetail[:maxZones], n-maxZones
			}
		}
		cm := e.colMetrics(name)
		sc.Probes = cm.probeQueries.Load()
		sc.Declined = cm.declined.Load()
		sc.ZoneProbes = cm.zonesProbed.Load()
		sc.RowsSkipped = cm.rowsSkipped.Load()
		sc.CandidateRows = cm.candidateRows.Load()
		sc.CoveredRows = cm.coveredRows.Load()
		if probed := sc.RowsSkipped + sc.CandidateRows; probed > 0 {
			sc.SkipRatio = float64(sc.RowsSkipped) / float64(probed)
		}
		st.Columns = append(st.Columns, sc)
	}
	return st
}

// Skipmaps is Skipmap in the shape a sharded table reports (one entry
// per shard): an engine is one unsharded table.
func (e *Engine) Skipmaps(maxZones int) []obs.SkipmapTable {
	return []obs.SkipmapTable{e.Skipmap(maxZones)}
}

// Shards is the number of shards an engine's table has: one.
func (e *Engine) Shards() int { return 1 }

// AdaptationROI assembles the table's per-column return-on-investment
// rows for /adaptation from each introspectable skipper's snapshot: its
// lifetime credit (rows pruned) against its debit (probe and maintenance
// work) in row-equivalents under the skipper's own cost constants, joined
// with the engine's per-column prune counters. Dead zones — probed but
// never once useful — are counted, and detailed up to maxDead entries
// per column (<= 0 omits the detail), so operators can see which row
// ranges carry metadata that earns nothing. Taken under the engine
// mutex, like Skipmap, so the view is consistent with in-flight queries.
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
		snap := s.Introspect()
		if snap.RowCost == 0 {
			continue // the zero snapshot: this skipper keeps no accounts
		}
		col, err := e.tbl.Column(name)
		if err != nil {
			continue
		}
		md := s.Metadata()
		cm := e.colMetrics(name)
		roi := obs.ColumnROI{
			Table: e.tbl.Name(), Shard: e.opts.Shard, Column: name,
			Kind: md.Kind, Zones: md.Zones, Bytes: md.Bytes,
			RowsSkipped:   snap.RowsSkipped,
			RowsCovered:   cm.coveredRows.Load(),
			CandidateRows: cm.candidateRows.Load(),
			// One code per row: the bytes a pruned scan never touched.
			BytesSkipped: snap.RowsSkipped * int64(col.Vec().Width()),
			ZoneProbes:   snap.ZoneProbes,
			MaintEvents:  snap.MaintEvents,
			MaintZones:   snap.MaintZones,
			NetRows: snap.RowCost*float64(snap.RowsSkipped) -
				snap.ProbeCost*float64(snap.ZoneProbes) -
				snap.MaintCost*float64(snap.MaintZones),
		}
		for _, zn := range snap.Zones {
			if zn.Hits != 0 || zn.Misses == 0 {
				continue
			}
			roi.DeadZones++
			if len(roi.DeadZoneDetail) < maxDead {
				roi.DeadZoneDetail = append(roi.DeadZoneDetail, obs.ROIZone{
					Lo: zn.Lo, Hi: zn.Hi, Min: zn.Min, Max: zn.Max,
					Hits: zn.Hits, Misses: zn.Misses,
				})
			}
		}
		out = append(out, roi)
	}
	return out
}
