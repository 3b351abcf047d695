// Package adaptive implements adaptive zonemaps — the paper's primary
// contribution: a layout of package zonemap's zone directory whose zones,
// each a run of whole parts of a fine summary of the column (scan.Summarize:
// MinZoneRows-row parts, each also cut where its values jump), are
// reshaped by per-query feedback:
//
//   - Split: a zone a query had to scan is cut where the query's verdict
//     changes across its parts. A split reads no rows: the summary fixes
//     where a zone may be cut, the workload chooses which cuts to expose.
//   - Merge: a run of adjacent zones whose metadata has stopped pruning is
//     coalesced, shedding probe cost and memory, where a query looks.
//   - Arbitration: a per-column cost model tracks whether probing pays for
//     itself; when it persistently loses (arbitrary data distributions),
//     skipping is disabled and only periodic shadow probes remain, so
//     adaptive skipping never durably underperforms a plain scan.
//
// The directory (zonemap.Grid) owns the zones, parts, blocks and append
// tail, and what every layout shares: tail folds, the PruneNulls walk and
// CheckInvariants. This package keeps what it learns of each zone in an
// array parallel to the zones, and owns the range probe walk (Prune, which
// also says why a zone did not prune), Observe with its split and merge
// edits, and arbitration. A broken layout is a fault: the walks panic with
// an error wrapping zonemap.ErrCorrupt, and the engine drops the zonemap.
package adaptive

import (
	"fmt"
	"slices"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// DefaultMinZoneRows is the part size of the fine summary the engine
// builds with when its Options.MinZoneRows is 0.
const DefaultMinZoneRows = 1024

// The tuning constants every zonemap runs at. None depends on the column:
// the adaptive mechanisms are what fit the structure to the data.
const (
	// HeatAlpha is the EWMA step for per-zone usefulness: heat follows
	// roughly the last 2/HeatAlpha-1 = 7 probes of a zone.
	HeatAlpha = 0.25
	// MergeHeat merges adjacent zones when both have usefulness below this
	// threshold: nine straight misses from the initial heat of 0.5.
	MergeHeat = 0.05
	// Horizon is arbitration's memory, in queries: the net-benefit EWMA
	// follows roughly the last Horizon queries, a zonemap is not disabled
	// before it has seen that many, so a few unlucky queries cannot switch
	// it off, and a disabled one pays one shadow probe every Horizon
	// queries to notice drift.
	Horizon = 32
	// ProbeCost is what one zone probe costs in the cost model's unit, a
	// row of scan work avoided. Probing metadata touches scattered cache
	// lines, scanning is sequential, so a probe must save several rows to
	// break even.
	ProbeCost = 4
)

// Net is the cost model's one charge, in rows: what skipping rowsSkipped
// rows earned, net of the probes that found them. Arbitration steps its
// EWMA by it and /adaptation's ROI rows report it, so the two cannot
// disagree about whether skipping pays.
func Net(rowsSkipped, probes int64) float64 {
	return float64(rowsSkipped) - ProbeCost*float64(probes)
}

// Mechanism is a set of the adaptive mechanisms, as Ablate switches them
// off.
type Mechanism uint8

// The mechanisms: split, merge and arbitration.
const (
	Split Mechanism = 1 << iota
	Merge
	Arbitration
)

// tuning is what a zonemap's tests and the ablation experiment vary of the
// shipped behaviour. New fills it with the shipped values and every
// mechanism on; this package's tests overwrite it to explore other
// horizons and merge thresholds on small columns.
type tuning struct {
	horizon   int
	mergeHeat float64
	off       Mechanism // the mechanisms Ablate switched off
}

// defaultTuning is the tuning every zonemap starts with.
var defaultTuning = tuning{horizon: Horizon, mergeHeat: MergeHeat}

// zone is a zone of the directory, and a part of the summary. Its hull is
// exactly its rows' own; a zone's is the union of its parts', so a split's
// sub-zones take their parts' hulls.
type zone = zonemap.Zone[expr.Hull]

// learner is what the zonemap learns of one zone, kept beside the zones so
// that a probe reads only bounds, hull and count. The zone's first part,
// which a split walks from, is the zone's own First.
type learner struct {
	heat float64 // EWMA of probe usefulness in [0,1]
}

// Stats exposes lifetime counters for experiments and introspection.
type Stats struct {
	Queries    int
	Splits     int // zones created by splitting (net additions)
	Merges     int // zones removed by merging
	Disables   int
	Enables    int
	NetBenefit float64 // EWMA of Net(rows skipped, entries probed) per query
	TailRows   int
}

// Zonemap is an adaptive zonemap over one column. It implements
// core.Skipper. Not safe for concurrent mutation.
type Zonemap struct {
	zonemap.Grid[expr.Hull, expr.Clause]
	learn []learner // one per zone

	partRows int // rows of a summary part, before a cut where values jump
	tune     tuning

	enabled         bool
	netBenefit      float64
	queries         int
	disabledQueries int

	splits, merges, disables, enables int

	built bool // New has folded the initial rows: a later fold is journaled

	journal func(obs.LedgerRecord) // adaptation-journal sink; nil = no journal
}

// SetJournal implements core.Skipper: every split, merge, tail fold,
// disable and enable is reported through sink — never a probe.
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
		h = h.Union(zones[i].Sum)
	}
	return h
}

// bounds is h as the ledger and the ROI rows carry it, where a hull of no
// value reads [0, 0].
func bounds(h expr.Hull) (lo, hi int64) {
	if h.Empty() {
		return 0, 0
	}
	return h.Min, h.Max
}

// New builds an adaptive zonemap over the column's current physical state:
// zones of zoneRows rows, each a run of whole parts of partRows rows
// (both positive), and the unindexed append tail folds into zones once it
// reaches zoneRows rows. partRows is the floor of a split: every zone
// boundary is a part boundary. The summary also cuts a part where its
// values jump (scan.Summarize), which can leave a smaller zone: at most
// one extra per jump.
func New(codes storage.Vec, nulls *bitvec.BitVec, zoneRows, partRows int) *Zonemap {
	z := &Zonemap{partRows: partRows, tune: defaultTuning, enabled: true}
	z.Grid = zonemap.Directory[expr.Hull, expr.Clause](zonemap.HullKind{}, zoneRows, z)
	z.FoldTail(codes, nulls)
	z.built = true
	return z
}

// Ablate switches off the mechanisms in off. Only the mechanism ablation
// and tests call it; the engine runs every mechanism. Every mechanism acts
// only in Observe, so a zonemap ablated after New and before its first
// query behaves as one built without them. A rebuilt zonemap (a second
// EnableSkipping, or the rebuild after a fault) is a new one, with every
// mechanism on: ablate it again.
func (z *Zonemap) Ablate(off Mechanism) { z.tune.off = off }

// Summarize implements zonemap.Layout: the parts are scan.Summarize's.
func (z *Zonemap) Summarize(parts []zone, codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) []zone {
	stats := scan.Summarize(codes, lo, hi, nulls, z.partRows)
	parts = slices.Grow(parts, len(stats))
	for _, p := range stats {
		parts = append(parts, zone{Lo: uint32(p.Lo), Hi: uint32(p.Hi), Sum: p.Hull, NonNull: uint32(p.NonNull)})
	}
	return parts
}

// Folded implements zonemap.Layout: the folded zones start at the initial
// heat, and the fold is journaled with the folded rows' hull. The build
// is neither maintenance nor journaled.
func (z *Zonemap) Folded(from int) {
	z.learn = slices.Grow(z.learn, len(z.Zones)-from)
	for range z.Zones[from:] {
		z.learn = append(z.learn, learner{heat: 0.5})
	}
	if !z.built {
		return
	}
	minAfter, maxAfter := bounds(hullOf(z.Zones[from:]))
	z.record(obs.LedgerRecord{
		Kind: obs.EventTailFold, Cause: "append-fold",
		ZonesBefore: from, ZonesAfter: len(z.Zones),
		RowLo: int(z.Zones[from].Lo), RowHi: z.Indexed(),
		MinAfter: minAfter, MaxAfter: maxAfter,
	})
}

// CheckInvariants implements core.Skipper: every zone has a learner, and
// the directory is sound (zonemap.Grid.CheckInvariants).
func (z *Zonemap) CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec) error {
	if len(z.learn) != len(z.Zones) {
		return fmt.Errorf("%w: %d zones, %d learners", zonemap.ErrCorrupt, len(z.Zones), len(z.learn))
	}
	return z.Grid.CheckInvariants(codes, nulls)
}

// Introspect implements core.Skipper: the dead zones in row order (heat
// below MergeHeat, the test a merge applies). It writes nothing.
func (z *Zonemap) Introspect() (obs.SkipperSnapshot, bool) {
	var snap obs.SkipperSnapshot
	for i, l := range z.learn {
		if zn := &z.Zones[i]; l.heat < z.tune.mergeHeat {
			mn, mx := bounds(zn.Sum)
			lo, hi := zn.Rows()
			snap.DeadZones = append(snap.DeadZones, obs.ROIZone{Lo: lo, Hi: hi, Min: mn, Max: mx, Heat: l.heat})
		}
	}
	return snap, true
}

// Stats returns lifetime counters.
func (z *Zonemap) Stats() Stats {
	return Stats{
		Queries: z.queries, Splits: z.splits, Merges: z.merges,
		Disables: z.disables, Enables: z.enables,
		NetBenefit: z.netBenefit, TailRows: z.Rows() - z.Indexed(),
	}
}

// Metadata implements core.Skipper. Bytes counts the heap the directory's
// zones, blocks and parts take, and the learners beside the zones.
func (z *Zonemap) Metadata() core.Metadata {
	md := z.Grid.Metadata()
	md.Kind, md.Enabled = "adaptive", z.enabled
	md.Bytes += cap(z.learn) * int(unsafe.Sizeof(learner{}))
	return md
}

// Prune implements core.Skipper. It only reads: Observe learns from what
// the probe concluded. While disabled it costs nothing, except on the
// query whose shadow probe would re-enable the zonemap, which probes as
// enabled. The walk checks, one comparison a step, that the zones tile the
// rows, and panics with zonemap.ErrCorrupt rather than skip a gap.
func (z *Zonemap) Prune(r expr.Ranges) core.PruneResult {
	if r.Lo == nil {
		r.Lo = noIntervals
	}
	// Disabled, a query probes only if it is the re-probe query and its
	// shadow probe turns the cost model positive: Observe will re-enable.
	if !z.enabled && ((z.disabledQueries+1)%z.tune.horizon != 0 || z.shadowBenefit(r) <= 0) {
		return core.PruneResult{Enabled: false, Ranges: r}
	}
	res := core.PruneResult{Enabled: true, Ranges: r}
	c := r.Clause()
	prev := uint32(0) // row where the next zone must start (tiling check)
	for bi := range z.Blocks {
		zLo, zHi := zonemap.Members(bi, len(z.Zones))
		res.ZonesProbed++ // the block probe
		if c.Test(z.Blocks[bi]) == expr.MatchNone {
			// One comparison skipped the whole run of zones. Gaps inside
			// a skipped block are still sound to skip: its value bounds
			// enclose every member row, wherever zone boundaries drifted.
			if z.Zones[zLo].Lo != prev {
				panic(zonemap.BadTiling(zLo, z.Zones[zLo].Lo, prev))
			}
			res.Emit(&core.CandidateZone{Lo: int(prev), Hi: int(z.Zones[zHi-1].Hi)}, true)
			prev = z.Zones[zHi-1].Hi
			continue
		}
		res.ZonesProbed += zHi - zLo
		for i := zLo; i < zHi; i++ {
			zn := &z.Zones[i]
			if zn.Lo != prev || zn.Hi <= zn.Lo {
				panic(zonemap.BadTiling(i, zn.Lo, prev))
			}
			prev = zn.Hi
			m := c.Test(zn.Sum)
			if m == expr.MatchNone {
				res.Emit(&core.CandidateZone{Lo: int(zn.Lo), Hi: int(zn.Hi)}, true)
				continue
			}
			cand := core.CandidateZone{Lo: int(zn.Lo), Hi: int(zn.Hi), Covered: pruned(zn, m)}
			// Why not skipped: only NULL rows blocked the coverage proof,
			// or the bounds straddle the predicate.
			switch {
			case cand.Covered:
			case m == expr.MatchAll:
				res.MissNullStraddle++
			default:
				res.MissOverlap++
			}
			res.Emit(&cand, false)
		}
	}
	return z.EndProbe(res, prev)
}

// noIntervals stands in for an empty predicate's nil list (PruneResult.Ranges).
var noIntervals = []int64{}

// pruned reports whether a probe whose clause tested zn's hull m spares
// the zone its scan: no value matches, so it is skipped, or every value
// matches and no row is NULL, so it is counted as covered. Prune emits
// candidates by it and Observe learns by it, so the two cannot disagree.
func pruned(zn *zone, m expr.Match) bool {
	return m == expr.MatchNone || m == expr.MatchAll && zn.NonNull == zn.Hi-zn.Lo
}

// corruptLayout shrinks the last multi-row zone by a row, leaving a gap:
// the faultinject.InvariantFlip hook, which the next probe must detect.
func (z *Zonemap) corruptLayout() {
	for i := len(z.Zones) - 1; i >= 0; i-- {
		if z.Zones[i].Hi-z.Zones[i].Lo > 1 {
			z.Zones[i].Hi--
			return
		}
	}
}

// DescribeZones renders up to max zones for the demo REPL.
func (z *Zonemap) DescribeZones(max int) string {
	s := fmt.Sprintf("adaptive zonemap: %d zones over %d rows (tail %d), enabled=%v\n",
		len(z.Zones), z.Rows(), z.Rows()-z.Indexed(), z.enabled)
	for i, zn := range z.Zones {
		if i >= max {
			s += fmt.Sprintf("  ... %d more zones\n", len(z.Zones)-max)
			break
		}
		mn, mx := bounds(zn.Sum)
		s += fmt.Sprintf("  zone %4d rows [%9d,%9d) bounds [%d,%d] nonNull=%d heat=%.2f\n",
			i, zn.Lo, zn.Hi, mn, mx, zn.NonNull, z.learn[i].heat)
	}
	return s
}

var _ core.Skipper = (*Zonemap)(nil)
