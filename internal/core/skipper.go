// Package core defines the data-skipping framework of the paper: the
// Skipper contract between metadata structures and the scan executor, and
// the non-adaptive policies (no skipping; static zonemaps). The adaptive
// policy — the paper's contribution — lives in package adaptive and
// implements the same contract.
//
// The whole contract is Skipper (probe, observe, maintain) plus four
// optional interfaces the engine asserts once each: Journaler (report
// structural change) and Introspector (expose state) for observability,
// HealthChecker and InvariantChecker for fault detection.
//
// The framework's shape follows the abstract: data skipping is a *policy*
// layered on fast scans, fed by per-query observations, so that structures
// can "respond to a vast array of data distributions and query workloads".
package core

import (
	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/zonemap"
)

// CandidateZone is one contiguous row window the executor must scan, as
// emitted by a Skipper's Prune.
type CandidateZone struct {
	ID        int  // skipper-private zone identity for feedback; NoZoneID if unattributed
	Lo, Hi    int  // row window [Lo, Hi)
	Covered   bool // metadata proves every row in the window matches
	WantStats bool // skipper asks for piggybacked partition stats if scanned
	StatParts int  // requested sub-partitions for those stats
}

// NoZoneID marks candidate windows with no feedback identity (tails, or
// skippers that do not learn).
const NoZoneID = -1

// PruneResult is the outcome of probing a skipper's metadata with a
// predicate's code intervals.
type PruneResult struct {
	// Enabled is false when the skipper declines to participate (no
	// skipping policy, or adaptive arbitration has turned skipping off);
	// the executor then scans the full row range with zero probe cost.
	Enabled bool
	// Zones are the ordered, disjoint row windows to scan.
	Zones []CandidateZone
	// ZonesProbed and RowsSkipped report probe work and pruning benefit
	// for instrumentation and for the adaptive cost model.
	ZonesProbed int
	RowsSkipped int
	// Why zones this probe left as candidates did not prune (skippers
	// that classify misses; zero otherwise): the value hull genuinely
	// straddles the predicate, the hull was loosened by an in-place update
	// since the zone was last rebuilt, or the predicate covers the hull
	// and only NULL rows blocked the coverage proof.
	MissOverlap, MissWidened, MissNullStraddle int
}

// ZoneObservation is per-zone execution feedback the engine hands back to
// the skipper after running the scan.
type ZoneObservation struct {
	ID      int  // zone identity from the CandidateZone
	Lo, Hi  int  // the window that was actually visited
	Covered bool // executor honored the covered short-circuit
	Partial bool // only part of the zone was scanned (multi-column intersection)
	Matched int  // predicate matches within the visited window (0 if Partial)
	// Stats carries piggybacked sub-partition statistics when the
	// candidate requested them and the zone was fully scanned.
	Stats []scan.PartStat
}

// Metadata summarizes a skipper's current state for introspection and the
// experiment harness.
type Metadata struct {
	Kind    string // "none", "static", "adaptive"
	Zones   int
	Bytes   int
	Enabled bool
}

// Skipper is the data-skipping contract. One Skipper instance serves one
// column of one table. Implementations need not be safe for concurrent
// mutation; the engine serializes Prune/Observe/Extend per column.
type Skipper interface {
	// Prune probes metadata with the predicate's code intervals and emits
	// the candidate row windows over the rows it covers.
	Prune(r expr.Ranges) PruneResult
	// PruneNulls emits candidate windows for IS NULL predicates: zones
	// known null-free skip, all-NULL zones are covered. Implementations
	// that track no null counts may decline (Enabled=false).
	PruneNulls() PruneResult
	// Observe feeds execution results back. Non-learning skippers ignore it.
	Observe(res PruneResult, obs []ZoneObservation)
	// Extend informs the skipper that the column grew; codes/nulls are the
	// column's full physical state.
	Extend(codes []int64, nulls *bitvec.BitVec)
	// Widen informs the skipper of an in-place update at row with the new
	// code, so zone bounds stay sound (they may become loose, never wrong).
	Widen(row int, code int64)
	// NoteNonNull informs the skipper that a NULL row gained a value.
	NoteNonNull(row int)
	// Rows returns the number of rows covered by the skipper's metadata.
	Rows() int
	// Metadata reports current structure state.
	Metadata() Metadata
}

// HealthChecker is implemented by skippers that can detect their own
// metadata corruption (e.g. a violated tiling invariant noticed during a
// probe or a bounds-maintenance call). A non-nil Health means the
// skipper's metadata can no longer be trusted: it must already have
// stopped pruning (fail open to full scans), and the engine quarantines
// it on the next interaction.
type HealthChecker interface {
	Health() error
}

// InvariantChecker is implemented by skippers whose full invariants can
// be re-verified against the column's physical state (an O(rows) pass).
// The engine uses it for on-demand verification sweeps; failures
// quarantine the skipper.
type InvariantChecker interface {
	CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error
}

// Journaler is implemented by skippers whose metadata changes over time
// (splits, merges, arbitration flips, tail folds, widens). The engine
// installs the sink at registration; each record carries the change's
// cause and the before/after shape of the affected metadata, and the
// engine stamps what the skipper cannot know — table/column/shard
// identity and the triggering query's fingerprint — before appending it
// to the adaptation ledger. Records are emitted only on structural
// change, never per probe, so the sink stays off the scan hot path.
type Journaler interface {
	SetJournal(sink func(obs.LedgerRecord))
}

// Introspector is implemented by skippers that can expose their state in
// one cold-path copy: every zone's bounds, heat and lifetime prune
// hit/miss counters, the cumulative probe/skip/maintenance counters, and
// the cost-model constants. The engine derives the /skipmap zone detail,
// the /adaptation ROI rows and their dead-zone detail from it.
type Introspector interface {
	Introspect() obs.SkipperSnapshot
}

// ---------------------------------------------------------------------------
// Policy: no skipping.

// NoSkipper is the null policy: every query scans everything. It is the
// baseline the paper measures against on arbitrary data.
type NoSkipper struct {
	rows int
}

// NewNoSkipper returns a NoSkipper over rows rows.
func NewNoSkipper(rows int) *NoSkipper { return &NoSkipper{rows: rows} }

// Prune declines: the executor performs a full scan.
func (s *NoSkipper) Prune(expr.Ranges) PruneResult { return PruneResult{Enabled: false} }

// PruneNulls declines likewise.
func (s *NoSkipper) PruneNulls() PruneResult { return PruneResult{Enabled: false} }

// Observe is a no-op.
func (s *NoSkipper) Observe(PruneResult, []ZoneObservation) {}

// Extend tracks the row count.
func (s *NoSkipper) Extend(codes []int64, _ *bitvec.BitVec) { s.rows = len(codes) }

// Widen is a no-op.
func (s *NoSkipper) Widen(int, int64) {}

// NoteNonNull is a no-op.
func (s *NoSkipper) NoteNonNull(int) {}

// Rows returns the tracked row count.
func (s *NoSkipper) Rows() int { return s.rows }

// Metadata reports zero structure.
func (s *NoSkipper) Metadata() Metadata { return Metadata{Kind: "none"} }

// ---------------------------------------------------------------------------
// Policy: static zonemaps.

// StaticSkipper wraps a fixed-granularity zonemap. It probes every zone on
// every query and never adapts — the classic design whose overhead on
// unordered data motivates the paper.
type StaticSkipper struct {
	m *zonemap.Map
}

// NewStaticSkipper builds a static zonemap skipper over the column's
// current physical state with the given zone size.
func NewStaticSkipper(codes []int64, nulls *bitvec.BitVec, zoneSize int) *StaticSkipper {
	return &StaticSkipper{m: zonemap.Build(codes, nulls, zoneSize)}
}

// Prune probes all zones.
func (s *StaticSkipper) Prune(r expr.Ranges) PruneResult {
	cands, st := s.m.Prune(r, nil)
	return convertCandidates(cands, st)
}

// PruneNulls probes the per-zone non-null counts: zones with no NULL rows
// skip, all-NULL zones are covered.
func (s *StaticSkipper) PruneNulls() PruneResult {
	cands, st := s.m.PruneNulls(nil)
	return convertCandidates(cands, st)
}

// Observe is a no-op: static zonemaps do not learn.
func (s *StaticSkipper) Observe(PruneResult, []ZoneObservation) {}

// Extend grows the zonemap over appended rows.
func (s *StaticSkipper) Extend(codes []int64, nulls *bitvec.BitVec) { s.m.Extend(codes, nulls) }

// Widen loosens the enclosing zone's bounds for an updated value.
func (s *StaticSkipper) Widen(row int, code int64) { s.m.Widen(row, code) }

// NoteNonNull records a NULL row gaining a value.
func (s *StaticSkipper) NoteNonNull(row int) { s.m.NoteNonNull(row) }

// Rows returns the rows covered by metadata.
func (s *StaticSkipper) Rows() int { return s.m.Rows() }

// Metadata reports the zonemap's footprint.
func (s *StaticSkipper) Metadata() Metadata {
	return Metadata{Kind: "static", Zones: s.m.NumZones(), Bytes: s.m.MemoryBytes(), Enabled: true}
}

// CheckInvariants implements InvariantChecker.
func (s *StaticSkipper) CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error {
	return s.m.CheckInvariants(codes, nulls, exact)
}

// ---------------------------------------------------------------------------
// Policy: column imprints.

// ImprintSkipper wraps a column imprint (bin-occurrence masks per zone):
// a second static skipping structure under the same contract,
// demonstrating the framework framing. Imprints prune multi-modal zones
// that min/max hulls cannot, at the cost of a histogram learned at build
// time.
type ImprintSkipper struct {
	m ImprintMap
}

// ImprintMap is what ImprintSkipper needs of an imprint. (The concrete
// type lives in package imprint; the indirection keeps core free of that
// dependency.)
type ImprintMap interface {
	Prune(expr.Ranges, []zonemap.Candidate) ([]zonemap.Candidate, zonemap.PruneStats)
	PruneNulls([]zonemap.Candidate) ([]zonemap.Candidate, zonemap.PruneStats)
	Extend([]int64, *bitvec.BitVec)
	Widen(int, int64)
	NoteNonNull(int)
	Rows() int
	NumZones() int
	MemoryBytes() int
	CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error
}

// NewImprintSkipper wraps an imprint map.
func NewImprintSkipper(m ImprintMap) *ImprintSkipper { return &ImprintSkipper{m: m} }

// Prune probes all zone masks.
func (s *ImprintSkipper) Prune(r expr.Ranges) PruneResult {
	cands, st := s.m.Prune(r, nil)
	return convertCandidates(cands, st)
}

// PruneNulls probes per-zone null counts.
func (s *ImprintSkipper) PruneNulls() PruneResult {
	cands, st := s.m.PruneNulls(nil)
	return convertCandidates(cands, st)
}

// Observe is a no-op: imprints do not learn.
func (s *ImprintSkipper) Observe(PruneResult, []ZoneObservation) {}

// Extend grows the imprint over appended rows.
func (s *ImprintSkipper) Extend(codes []int64, nulls *bitvec.BitVec) { s.m.Extend(codes, nulls) }

// Widen admits an updated value's bin.
func (s *ImprintSkipper) Widen(row int, code int64) { s.m.Widen(row, code) }

// NoteNonNull records a NULL row gaining a value.
func (s *ImprintSkipper) NoteNonNull(row int) { s.m.NoteNonNull(row) }

// Rows returns the rows covered by metadata.
func (s *ImprintSkipper) Rows() int { return s.m.Rows() }

// Metadata reports the imprint's footprint.
func (s *ImprintSkipper) Metadata() Metadata {
	return Metadata{Kind: "imprint", Zones: s.m.NumZones(), Bytes: s.m.MemoryBytes(), Enabled: true}
}

// CheckInvariants implements InvariantChecker.
func (s *ImprintSkipper) CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error {
	return s.m.CheckInvariants(codes, nulls, exact)
}

// convertCandidates adapts zonemap-style candidates to a PruneResult.
func convertCandidates(cands []zonemap.Candidate, st zonemap.PruneStats) PruneResult {
	res := PruneResult{
		Enabled:     true,
		ZonesProbed: st.ZonesProbed,
		RowsSkipped: st.RowsSkipped,
		Zones:       make([]CandidateZone, len(cands)),
	}
	for i, c := range cands {
		res.Zones[i] = CandidateZone{ID: NoZoneID, Lo: c.Lo, Hi: c.Hi, Covered: c.Covered}
	}
	return res
}

var (
	_ Skipper = (*NoSkipper)(nil)
	_ Skipper = (*StaticSkipper)(nil)
	_ Skipper = (*ImprintSkipper)(nil)

	_ InvariantChecker = (*StaticSkipper)(nil)
	_ InvariantChecker = (*ImprintSkipper)(nil)
)
