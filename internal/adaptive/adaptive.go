// Package adaptive implements adaptive zonemaps — the paper's primary
// contribution. An adaptive zonemap is a variable-granularity partition of
// a column's row space into zones carrying an expr.Hull and a non-null
// count, tested as every zone is, and reshaped by per-query feedback:
//
//   - Split: a zone a query had to scan is cut where the query's verdict
//     changes across the parts of a fine summary of the column — hulls of
//     MinZoneRows-row parts, each also cut where its values jump — that
//     the zonemap builds with its zones in the same walk of the rows. A
//     split reads no data: the summary fixes where a zone may be cut, the
//     workload chooses which of those boundaries to expose.
//   - Merge: adjacent zones whose metadata never prunes anything are
//     coalesced, shedding probe cost and memory.
//   - Arbitration: a per-column cost model tracks whether probing pays for
//     itself; when it persistently loses (arbitrary data distributions),
//     skipping is disabled outright and only cheap periodic shadow probes
//     remain, so adaptive skipping never durably underperforms a plain
//     scan — the failure mode of static zonemaps the abstract calls out.
//
// A broken layout is a fault: the probe walk and the row lookup of Widen
// and NoteNonNull check that the zones tile the indexed rows, and panic
// with an error wrapping ErrCorrupt when they do not. The zonemap records
// nothing; the engine drops it (see core.Skipper).
package adaptive

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// ErrCorrupt marks detected metadata corruption: a violated structural
// invariant noticed during a probe or bounds-maintenance call. The zonemap
// panics with an error that wraps it rather than answer from a broken
// layout; the engine recovers the panic and drops the zonemap, so the
// column falls back to full scans, which are always sound.
var ErrCorrupt = errors.New("adaptive: metadata corrupt")

// Config tunes an adaptive zonemap. The zero value selects defaults
// suitable for multi-million-row columns.
type Config struct {
	// InitialZoneRows is the granularity of the initial coarse build and
	// of folded append tails: the unindexed append tail folds into zones
	// once it reaches this many rows. Default 65536.
	InitialZoneRows int
	// MinZoneRows is the part size of the fine summary, and so the floor
	// of a split: every zone boundary is a part boundary. The summary also
	// cuts a part where its values jump (scan.Summarize), which can leave
	// a smaller zone: at most one extra per jump. Default 1024.
	MinZoneRows int
	// DisableSplit, DisableMerge, and DisableArbitration switch off the
	// corresponding adaptive mechanism. They exist for the ablation
	// experiments; production use keeps all three on.
	DisableSplit       bool
	DisableMerge       bool
	DisableArbitration bool
}

func (c Config) withDefaults() Config {
	if c.InitialZoneRows <= 0 {
		c.InitialZoneRows = 65536
	}
	if c.MinZoneRows <= 0 {
		c.MinZoneRows = 1024
	}
	return c
}

// The tuning constants every zonemap runs at. None depends on the column:
// the adaptive mechanisms are what fit the structure to the data.
const (
	// MaxZones caps metadata size (3.5 MiB of zones at the cap); splits
	// stop at the cap until merges reclaim space.
	MaxZones = 65536
	// HeatAlpha is the EWMA step for per-zone usefulness: heat follows
	// roughly the last 2/HeatAlpha-1 = 7 probes of a zone.
	HeatAlpha = 0.25
	// MergeHeat merges adjacent zones when both have usefulness below this
	// threshold: nine straight misses from the initial heat of 0.5.
	MergeHeat = 0.05
	// MergeSweepEvery runs the O(zones) merge sweep every this many
	// queries rather than after each one.
	MergeSweepEvery = 8
	// Window is the effective query window of the arbitration EWMA: long
	// enough that a few unlucky queries do not disable skipping.
	Window = 32
	// ProbeCost and RowCost are the relative cost-model constants: one
	// zone probe vs one row of scan work avoided. Probing metadata touches
	// scattered cache lines, scanning is sequential, so a probe must save
	// several rows to break even.
	ProbeCost = 4
	RowCost   = 1
	// ReprobeEvery is the shadow-probe period while disabled: a disabled
	// column pays one probe every this many queries to notice drift.
	ReprobeEvery = 32
)

// tuning is a zonemap's copy of the tuning constants, plus the tail fold
// threshold, which is Config.InitialZoneRows. New and Read fill it; this
// package's tests overwrite fields to explore other values on small
// columns.
type tuning struct {
	maxZones, tailFoldRows                   int
	mergeSweepEvery, window, reprobeEvery    int
	heatAlpha, mergeHeat, probeCost, rowCost float64
}

// newTuning returns the tuning of a zonemap built with cfg, which has its
// defaults applied.
func newTuning(cfg Config) tuning {
	return tuning{
		maxZones: MaxZones, mergeSweepEvery: MergeSweepEvery,
		window: Window, reprobeEvery: ReprobeEvery, tailFoldRows: cfg.InitialZoneRows,
		heatAlpha: HeatAlpha, mergeHeat: MergeHeat, probeCost: ProbeCost, rowCost: RowCost,
	}
}

// zone is one variable-width zone, a run of whole parts of the summary.
// Bounds are sound (enclose every non-null value in the window) but may be
// loose after updates. A split does not re-tighten them: it reads no rows,
// and its sub-zones take the hulls of their parts, which every update
// widened along with the zone.
type zone struct {
	lo, hi  int
	hull    expr.Hull // of the non-null rows: empty when there is none
	nonNull int
	heat    float64 // EWMA of probe usefulness in [0,1]
	// first is the index of the zone's first summary part. Parts are only
	// ever appended, so it stays valid; it lets a split walk the zone's
	// parts without a search of the summary, which the scan that ran just
	// before has pushed out of cache.
	first int32
	// widened marks a zone whose value hull was loosened by an in-place
	// update since a tail fold built it, so a prune miss on it may be
	// stale metadata rather than data distribution. Sub-zones of a split
	// and merges inherit it.
	widened bool
}

// Stats exposes lifetime counters for experiments and introspection.
type Stats struct {
	Queries    int
	Splits     int // zones created by splitting (net additions)
	Merges     int // zones removed by merging
	Disables   int
	Enables    int
	NetBenefit float64 // EWMA of (rows-skipped·RowCost − probes·ProbeCost)
	TailRows   int
}

// Zonemap is an adaptive zonemap over one column. It implements
// core.Skipper. Not safe for concurrent mutation.
type Zonemap struct {
	cfg   Config
	tune  tuning
	zones []zone
	// parts is the fine summary: it tiles [0, tailLo) too, and every zone
	// boundary is a part boundary. Splits are planned from it alone.
	parts  []scan.PartStat
	rows   int // total rows, including unindexed tail
	tailLo int // zones tile [0, tailLo); tail is [tailLo, rows)
	// blocks is the coarse probe level, under the min/max hull.
	blocks zonemap.Blocks[expr.Hull, expr.Clause]

	enabled         bool
	netBenefit      float64
	queries         int
	disabledQueries int

	splits, merges, disables, enables int

	// maintEvents counts structural/arbitration events (splitting
	// Observes, merging sweeps, arbitration flips, tail folds);
	// maintZones counts the zones those events touched.
	maintEvents int64
	maintZones  int64

	journal func(obs.LedgerRecord) // adaptation-journal sink; nil = no journal
}

// SetJournal implements core.Skipper: every structural and arbitration
// change (split, merge, tail fold, first widen, disable, enable) is
// reported through sink with its cause and before/after shape. Records
// fire only on such change — never per probe — so the sink is far off
// the scan path.
func (z *Zonemap) SetJournal(sink func(obs.LedgerRecord)) { z.journal = sink }

// record journals one lifecycle record if a sink is installed.
func (z *Zonemap) record(rec obs.LedgerRecord) {
	if z.journal != nil {
		z.journal(rec)
	}
}

// hullOf is the union of the hulls of zones.
func hullOf(zones []zone) expr.Hull {
	h := expr.EmptyHull
	for i := range zones {
		h = h.Union(zones[i].hull)
	}
	return h
}

// bounds is h as the snapshot's zone record, the ledger and the ROI rows
// carry it, where a hull of no value reads [0, 0].
func bounds(h expr.Hull) (lo, hi int64) {
	if h.Empty() {
		return 0, 0
	}
	return h.Min, h.Max
}

// New builds an adaptive zonemap over the column's current physical state.
func New(codes storage.Vec, nulls *bitvec.BitVec, cfg Config) *Zonemap {
	cfg = cfg.withDefaults()
	z := &Zonemap{cfg: cfg, tune: newTuning(cfg), enabled: true}
	z.rows = codes.Len()
	z.appendZones(codes, nulls, 0, z.rows)
	z.rebuildBlocks(0)
	return z
}

// rebuildBlocks re-hulls the coarse level from the block of zone from on,
// the first zone a structural edit (split, merge, tail fold) moved.
func (z *Zonemap) rebuildBlocks(from int) {
	z.blocks.Refold(from, len(z.zones), func(lo, hi int) zonemap.Block[expr.Hull] {
		h := hullOf(z.zones[lo:hi])
		return zonemap.Block[expr.Hull]{Sum: h, HasData: !h.Empty()}
	})
}

// maintCostRows is the assumed cost, in rows scanned, of one zone's worth
// of maintenance (split planning, merge bookkeeping, fold recompute):
// small, since splits read only the summary, but not free — zone copies,
// the coarse-level rebuild, cache pollution. ROI debits it per
// maintenance-touched zone.
const maintCostRows = 64

// Introspect implements core.Skipper: the dead zones in row order (heat
// below MergeHeat, the test canMerge applies), the maintenance counters,
// and the cost constants that weigh them. It writes nothing.
func (z *Zonemap) Introspect() obs.SkipperSnapshot {
	snap := obs.SkipperSnapshot{
		MaintEvents: z.maintEvents,
		MaintZones:  z.maintZones,
		RowCost:     z.tune.rowCost,
		ProbeCost:   z.tune.probeCost,
		MaintCost:   maintCostRows,
	}
	for i := range z.zones {
		if zn := &z.zones[i]; zn.heat < z.tune.mergeHeat {
			mn, mx := bounds(zn.hull)
			snap.DeadZones = append(snap.DeadZones, obs.ROIZone{Lo: zn.lo, Hi: zn.hi, Min: mn, Max: mx, Heat: zn.heat})
		}
	}
	return snap
}

// appendZones summarizes rows [from, to), which start at tailLo, appends
// the parts, and builds zones over them: each the union of the parts from
// the first on until it holds InitialZoneRows rows, or the parts run out.
// When MinZoneRows divides InitialZoneRows every zone but the last holds
// exactly InitialZoneRows rows. It reads the rows once, through the
// summary, and leaves tailLo at to.
func (z *Zonemap) appendZones(codes storage.Vec, nulls *bitvec.BitVec, from, to int) {
	first := len(z.parts)
	z.parts = append(z.parts, scan.Summarize(codes, from, to, nulls, z.cfg.MinZoneRows)...)
	for k := first; k < len(z.parts); k++ {
		part := z.partZone(k)
		if n := len(z.zones) - 1; k > first && z.zones[n].hi-z.zones[n].lo < z.cfg.InitialZoneRows {
			z.zones[n] = mergeZones(z.zones[n], part)
			continue
		}
		z.zones = append(z.zones, part)
	}
	z.tailLo = to
}

// partZone is summary part k as a zone of its own, at the initial heat.
func (z *Zonemap) partZone(k int) zone {
	p := &z.parts[k]
	return zone{lo: p.Lo, hi: p.Hi, hull: p.Hull, nonNull: p.NonNull, heat: 0.5, first: int32(k)}
}

// Rows returns the rows covered (including the unindexed tail).
func (z *Zonemap) Rows() int { return z.rows }

// NumZones returns the current zone count.
func (z *Zonemap) NumZones() int { return len(z.zones) }

// Enabled reports whether arbitration currently allows skipping.
func (z *Zonemap) Enabled() bool { return z.enabled }

// Stats returns lifetime counters.
func (z *Zonemap) Stats() Stats {
	return Stats{
		Queries: z.queries, Splits: z.splits, Merges: z.merges,
		Disables: z.disables, Enables: z.enables,
		NetBenefit: z.netBenefit, TailRows: z.rows - z.tailLo,
	}
}

// Metadata implements core.Skipper. Bytes includes both probe levels and
// the summary.
func (z *Zonemap) Metadata() core.Metadata {
	bytes := len(z.zones)*int(unsafe.Sizeof(zone{})) + len(z.blocks)*int(unsafe.Sizeof(zonemap.Block[expr.Hull]{})) +
		len(z.parts)*int(unsafe.Sizeof(scan.PartStat{}))
	return core.Metadata{Kind: "adaptive", Zones: len(z.zones), Bytes: bytes, Enabled: z.enabled}
}

// Prune implements core.Skipper. It only reads: Observe learns from what
// the probe concluded. While disabled it costs nothing, except on the
// query whose shadow probe would re-enable the zonemap, which probes as
// enabled.
//
// The probe walk doubles as a cheap corruption check: zones must tile
// the indexed row space exactly, and the walk already visits every block
// (and every zone of overlapping blocks), so verifying contiguity costs
// one comparison per step. On a violation the probe panics with
// ErrCorrupt rather than emit a candidate set with silent row gaps; the
// engine drops the zonemap and scans the column in full.
func (z *Zonemap) Prune(r expr.Ranges) core.PruneResult {
	if r.Lo == nil {
		r.Lo = noIntervals
	}
	// Disabled, a query probes only if it is the re-probe query and its
	// shadow probe turns the cost model positive: Observe will re-enable.
	if !z.enabled && ((z.disabledQueries+1)%z.tune.reprobeEvery != 0 || z.shadowBenefit(r) <= 0) {
		return core.PruneResult{Enabled: false, Ranges: r}
	}
	res := core.PruneResult{Enabled: true, Ranges: r}
	c := r.Clause()
	prev := 0 // row where the next zone must start (tiling check)
	for bi := range z.blocks {
		zLo, zHi := zonemap.Members(bi, len(z.zones))
		res.ZonesProbed++ // the block probe
		if c.Test(z.blocks[bi].Sum) == expr.MatchNone {
			// One comparison skipped the whole run of zones. Gaps inside
			// a skipped block are still sound to skip: its value bounds
			// enclose every member row, wherever zone boundaries drifted.
			if z.zones[zLo].lo != prev {
				panic(badTiling(zLo, z.zones[zLo].lo, prev))
			}
			res.Emit(&core.CandidateZone{Lo: prev, Hi: z.zones[zHi-1].hi}, true)
			prev = z.zones[zHi-1].hi
			continue
		}
		res.ZonesProbed += zHi - zLo
		for i := zLo; i < zHi; i++ {
			zn := &z.zones[i]
			if zn.lo != prev || zn.hi <= zn.lo {
				panic(badTiling(i, zn.lo, prev))
			}
			prev = zn.hi
			m := c.Test(zn.hull)
			if m == expr.MatchNone {
				res.Emit(&core.CandidateZone{Lo: zn.lo, Hi: zn.hi}, true)
				continue
			}
			cand := core.CandidateZone{Lo: zn.lo, Hi: zn.hi, Covered: zn.pruned(m)}
			if !cand.Covered {
				// Why not skipped: only NULL rows blocked the coverage
				// proof, the hull was loosened (maybe stale metadata), or
				// the bounds genuinely straddle the predicate.
				switch {
				case m == expr.MatchAll:
					res.MissNullStraddle++
				case zn.widened:
					res.MissWidened++
				default:
					res.MissOverlap++
				}
			}
			res.Emit(&cand, false)
		}
	}
	return z.endProbe(res, prev)
}

// noIntervals stands in for an empty predicate's nil list (PruneResult.Ranges).
var noIntervals = []int64{}

// pruned reports whether a probe whose clause tested zn's hull m spares
// the zone its scan: no value matches, so it is skipped, or every value
// matches and no row is NULL, so it is counted as covered. Prune emits
// candidates by it and Observe learns by it, so the two cannot disagree.
func (zn *zone) pruned(m expr.Match) bool {
	return m == expr.MatchNone || m == expr.MatchAll && zn.nonNull == zn.hi-zn.lo
}

// endProbe checks that the zones ended where the tail, a candidate, starts.
func (z *Zonemap) endProbe(res core.PruneResult, prev int) core.PruneResult {
	if prev != z.tailLo {
		panic(fmt.Errorf("%w: zones end at %d, tailLo=%d", ErrCorrupt, prev, z.tailLo))
	}
	if z.rows > z.tailLo {
		res.Zones = append(res.Zones, core.CandidateZone{Lo: z.tailLo, Hi: z.rows})
	}
	return res
}

// badTiling is the fault a probe raises on a zone that does not start
// where the one before it ended.
func badTiling(idx, got, want int) error {
	return fmt.Errorf("%w: zone %d starts at %d, want %d (layout gap or overlap)", ErrCorrupt, idx, got, want)
}

// PruneNulls implements core.Skipper for IS NULL predicates: zones with no
// NULL rows skip, all-NULL zones are covered. The structure does not
// refine on null-seeking queries, and the unindexed tail is a candidate.
// Like Prune it writes nothing; its result carries no Ranges, so Observe
// feeds it to the cost model alone.
func (z *Zonemap) PruneNulls() core.PruneResult {
	res := core.PruneResult{Enabled: true, ZonesProbed: len(z.zones)}
	prev := 0
	for i := range z.zones {
		zn := &z.zones[i]
		if zn.lo != prev || zn.hi <= zn.lo {
			panic(badTiling(i, zn.lo, prev))
		}
		prev = zn.hi
		res.Emit(&core.CandidateZone{Lo: zn.lo, Hi: zn.hi, Covered: zn.nonNull == 0}, zn.nonNull == zn.hi-zn.lo)
	}
	return z.endProbe(res, prev)
}

// Extend implements core.Skipper: appended rows enter the unindexed tail,
// which is folded into coarse zones once it exceeds TailFoldRows.
func (z *Zonemap) Extend(codes storage.Vec, nulls *bitvec.BitVec) {
	z.rows = codes.Len()
	if z.rows-z.tailLo >= z.tune.tailFoldRows {
		z.FoldTail(codes, nulls)
	}
}

// FoldTail immediately folds the append tail into zones regardless of its
// size. Exposed for bulk-load epilogues and tests.
func (z *Zonemap) FoldTail(codes storage.Vec, nulls *bitvec.BitVec) {
	if z.rows <= z.tailLo {
		return
	}
	before := len(z.zones)
	foldLo := z.tailLo
	z.appendZones(codes, nulls, z.tailLo, z.rows)
	z.rebuildBlocks(before)
	z.maintZones += int64(len(z.zones) - before)
	z.maintEvents++
	// The folded region's hull: the tail had no metadata before.
	minAfter, maxAfter := bounds(hullOf(z.zones[before:]))
	z.record(obs.LedgerRecord{
		Kind: obs.EventTailFold, Cause: "append-fold",
		ZonesBefore: before, ZonesAfter: len(z.zones),
		RowLo: foldLo, RowHi: z.rows,
		MinAfter: minAfter, MaxAfter: maxAfter,
	})
}

// Widen implements core.Skipper: loosen the enclosing zone's bounds, and
// its part's, so an in-place update can never be wrongly skipped, not even
// by a zone a later split cuts from the part. Rows in the tail need no
// metadata maintenance. A row no zone or part covers is a broken layout:
// the lookup panics with ErrCorrupt, and the engine drops the zonemap, so
// the missed widening can never cause a wrong skip.
func (z *Zonemap) Widen(row int, code int64) {
	if row >= z.tailLo {
		return
	}
	i := z.zoneIndex(row)
	zn := &z.zones[i]
	p := &z.parts[z.partIndex(row)]
	p.Hull = p.Hull.Admit(code)
	z.blocks.Admit(zonemap.HullKind{}, i, code)
	before := zn.hull
	if zn.hull = before.Admit(code); before.Empty() || zn.hull == before {
		return // a first value, or one inside the hull: nothing loosened
	}
	// Journal only the first loosening since the zone's last rebuild:
	// the flag is what the why-not-skipped classifier reads, and one
	// record per zone generation bounds ledger churn under update floods.
	if !zn.widened {
		zn.widened = true
		z.record(obs.LedgerRecord{
			Kind: obs.EventWiden, Cause: "update-widen",
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: zn.lo, RowHi: zn.hi,
			MinBefore: before.Min, MaxBefore: before.Max,
			MinAfter: zn.hull.Min, MaxAfter: zn.hull.Max,
		})
	}
}

// NoteNonNull implements core.Skipper: the row counts in its zone and in
// its part.
func (z *Zonemap) NoteNonNull(row int) {
	if row >= z.tailLo {
		return
	}
	z.zones[z.zoneIndex(row)].nonNull++
	z.parts[z.partIndex(row)].NonNull++
}

// zoneIndex locates the zone containing row by binary search. A row the
// zones do not cover means the layout invariant is violated: it panics
// with ErrCorrupt.
func (z *Zonemap) zoneIndex(row int) int {
	i := sort.Search(len(z.zones), func(i int) bool { return z.zones[i].hi > row })
	if i == len(z.zones) || z.zones[i].lo > row {
		panic(fmt.Errorf("%w: row %d not covered by zones (tailLo=%d)", ErrCorrupt, row, z.tailLo))
	}
	return i
}

// partIndex is zoneIndex over the summary's parts.
func (z *Zonemap) partIndex(row int) int {
	i := sort.Search(len(z.parts), func(i int) bool { return z.parts[i].Hi > row })
	if i == len(z.parts) || z.parts[i].Lo > row {
		panic(fmt.Errorf("%w: row %d not covered by parts (tailLo=%d)", ErrCorrupt, row, z.tailLo))
	}
	return i
}

// CheckInvariants verifies the structural invariants against the column's
// physical state: the zones and the summary's parts each tile [0, tailLo)
// exactly with non-empty windows, every zone boundary is a part boundary,
// each part's bounds enclose its rows' non-null values and each zone's
// bounds its parts' bounds, and non-null counts are exact (when exact) or
// never above the rows that hold a value (Widen without NoteNonNull leaves
// them low, a caller bug exact reports). The tiling is checked first, so a
// broken layout is named by the row where it breaks. Each part's rows are
// then read once, by the min/max kernel; only a part whose bounds fail is
// walked again, to name the row.
func (z *Zonemap) CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec, exact bool) error {
	if err := tiles("zone", len(z.zones), func(i int) (int, int) { return z.zones[i].lo, z.zones[i].hi }, z.tailLo); err != nil {
		return err
	}
	if err := tiles("part", len(z.parts), func(k int) (int, int) { return z.parts[k].Lo, z.parts[k].Hi }, z.tailLo); err != nil {
		return err
	}
	if z.tailLo > z.rows {
		return fmt.Errorf("adaptive: tailLo %d beyond rows %d", z.tailLo, z.rows)
	}
	k := 0 // the zone's first part
	for i, zn := range z.zones {
		if int(zn.first) != k {
			return fmt.Errorf("adaptive: zone %d names part %d as its first, want %d", i, zn.first, k)
		}
		partsHull, nonNull := expr.EmptyHull, 0
		for ; k < len(z.parts) && z.parts[k].Hi <= zn.hi; k++ {
			p := &z.parts[k]
			h, n := scan.MinMax(codes, p.Lo, p.Hi, nulls, 0)
			if !p.Hull.Encloses(h) {
				return excludedRow(k, p, codes, nulls)
			}
			if err := checkNonNull("part", k, p.NonNull, n, exact); err != nil {
				return err
			}
			partsHull, nonNull = partsHull.Union(p.Hull), nonNull+n
		}
		if k == 0 || z.parts[k-1].Hi != zn.hi {
			return fmt.Errorf("adaptive: zone %d [%d,%d) ends inside part %d", i, zn.lo, zn.hi, k)
		}
		if !zn.hull.Encloses(partsHull) {
			return fmt.Errorf("adaptive: zone %d bounds [%d,%d] do not enclose its parts' [%d,%d]",
				i, zn.hull.Min, zn.hull.Max, partsHull.Min, partsHull.Max)
		}
		if err := checkNonNull("zone", i, zn.nonNull, nonNull, exact); err != nil {
			return err
		}
	}
	if err := z.blocks.Check(zonemap.HullKind{}, len(z.zones), func(i int) (expr.Hull, bool) {
		return z.zones[i].hull, !z.zones[i].hull.Empty()
	}); err != nil {
		return fmt.Errorf("adaptive: %w", err)
	}
	return nil
}

// tiles checks that the n windows window(i) are non-empty and tile
// [0, end) in order; what names them in the error.
func tiles(what string, n int, window func(i int) (lo, hi int), end int) error {
	prev := 0
	for i := 0; i < n; i++ {
		lo, hi := window(i)
		if lo != prev {
			return fmt.Errorf("adaptive: %s %d starts at %d, want %d (gap or overlap)", what, i, lo, prev)
		}
		if hi <= lo {
			return fmt.Errorf("adaptive: %s %d empty [%d,%d)", what, i, lo, hi)
		}
		prev = hi
	}
	if prev != end {
		return fmt.Errorf("adaptive: %ss end at %d, tailLo=%d", what, prev, end)
	}
	return nil
}

// checkNonNull compares the non-null count zone or part i keeps with the
// actual one.
func checkNonNull(what string, i, kept, actual int, exact bool) error {
	if exact && kept != actual || kept > actual {
		return fmt.Errorf("adaptive: %s %d nonNull=%d, actual %d", what, i, kept, actual)
	}
	return nil
}

// excludedRow names the first non-null row of part k whose code its bounds
// exclude; CheckInvariants calls it once the part's min/max showed there is
// one.
func excludedRow(k int, p *scan.PartStat, codes storage.Vec, nulls *bitvec.BitVec) error {
	for r := p.Lo; r < p.Hi; r++ {
		if nulls != nil && nulls.Get(r) {
			continue
		}
		if c := codes.At(r); !p.Hull.Encloses(expr.Hull{Min: c, Max: c}) {
			return fmt.Errorf("adaptive: part %d bounds [%d,%d] exclude row %d code %d", k, p.Hull.Min, p.Hull.Max, r, c)
		}
	}
	return fmt.Errorf("adaptive: part %d bounds [%d,%d] exclude a row of [%d,%d)", k, p.Hull.Min, p.Hull.Max, p.Lo, p.Hi)
}

// corruptLayout deterministically breaks the zone tiling invariant — the
// last multi-row zone's upper bound shrinks by one, leaving a row gap.
// It exists only as the faultinject.InvariantFlip chaos hook: the next
// probe must detect the gap and panic with ErrCorrupt, and the engine
// drops the zonemap.
func (z *Zonemap) corruptLayout() {
	for i := len(z.zones) - 1; i >= 0; i-- {
		if z.zones[i].hi-z.zones[i].lo > 1 {
			z.zones[i].hi--
			return
		}
	}
}

// DescribeZones renders up to max zones for the demo REPL.
func (z *Zonemap) DescribeZones(max int) string {
	s := fmt.Sprintf("adaptive zonemap: %d zones over %d rows (tail %d), enabled=%v\n",
		len(z.zones), z.rows, z.rows-z.tailLo, z.enabled)
	for i, zn := range z.zones {
		if i >= max {
			s += fmt.Sprintf("  ... %d more zones\n", len(z.zones)-max)
			break
		}
		mn, mx := bounds(zn.hull)
		s += fmt.Sprintf("  zone %4d rows [%9d,%9d) bounds [%d,%d] nonNull=%d heat=%.2f\n",
			i, zn.lo, zn.hi, mn, mx, zn.nonNull, zn.heat)
	}
	return s
}

var _ core.Skipper = (*Zonemap)(nil)
