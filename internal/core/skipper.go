// Package core defines the data-skipping framework of the paper: the
// Skipper contract between metadata structures and the scan executor, and
// the null policy (no skipping). Every other skipper is a layout of one
// zone directory, package zonemap's Grid: the static zonemap and column
// imprints keep fixed-size zones, the adaptive zonemap (package adaptive,
// the paper's contribution) reshapes its zones from query feedback.
//
// The whole contract is Skipper: probe, observe, maintain (after an append
// every summary is again exactly what its rows derive), and three cold-path
// duties (report structural change, expose state, re-verify against the
// column), which a structure with nothing to say answers with the zero
// value. A skipper that finds its own metadata broken panics; the engine
// drops it and the column runs full scans. As in the abstract, skipping is
// a *policy* layered on fast scans, fed back once per completed query so
// that structures can "respond to a vast array of data distributions and
// query workloads".
package core

import (
	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
)

// CandidateZone is one contiguous row window the executor must scan, as
// emitted by a Skipper's Prune.
type CandidateZone struct {
	// ID is read by nothing: no skipper sets it and the engine ignores
	// it. It remains, with NoZoneID, for code outside this module that
	// still spells a window with it (the repository benchmark's ladder).
	ID      int
	Lo, Hi  int  // row window [Lo, Hi)
	Covered bool // metadata proves every row in the window matches
}

// NoZoneID is the ID such code gives a window; see CandidateZone.ID.
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
	// that classify misses; zero otherwise): the value hull straddles the
	// predicate, or the predicate covers the hull and only NULL rows
	// blocked the coverage proof.
	MissOverlap, MissNullStraddle int
	// Ranges is the predicate the probe compared zone bounds with. A
	// learning skipper sets it so that Observe can re-derive what the
	// probe concluded zone by zone; a nil interval list marks an IS NULL
	// probe. Skippers that do not learn leave it unset.
	Ranges expr.Ranges
}

// Emit records a probe's verdict on candidate c's rows: skipped, they add
// to RowsSkipped; scanned, c merges into the window before it when the two
// touch and agree on Covered — the executor treats such windows alike, so
// a converged structure emits a handful of windows whatever its zone count.
func (r *PruneResult) Emit(c *CandidateZone, skip bool) {
	if skip {
		r.RowsSkipped += c.Hi - c.Lo
		return
	}
	if k := len(r.Zones) - 1; k >= 0 && r.Zones[k].Covered == c.Covered && r.Zones[k].Hi == c.Lo {
		r.Zones[k].Hi = c.Hi
		return
	}
	r.Zones = append(r.Zones, *c)
}

// Metadata summarizes a skipper's current state for introspection and the
// experiment harness.
type Metadata struct {
	Kind    string // "none", "static", "imprint", "adaptive"
	Zones   int
	Bytes   int
	Enabled bool
}

// Skipper is the data-skipping contract. One Skipper instance serves one
// column of one table. Implementations need not be safe for concurrent
// mutation; the engine serializes Prune/Observe/Extend per column.
//
// A fault is a panic: a skipper that notices its metadata broken (a
// violated structural invariant) panics rather than answer. The engine
// makes every probe, feedback, maintenance and verification call under
// recover and drops a skipper that panics, so a fault costs the column
// full scans, never an answer.
type Skipper interface {
	// Prune probes metadata with the predicate's code intervals and emits
	// the candidate row windows over the rows it covers. It writes
	// nothing — what a skipper learns is Observe's — so a probe no query
	// follows (EXPLAIN, a query that fails) leaves the skipper as it was.
	Prune(r expr.Ranges) PruneResult
	// PruneNulls emits candidate windows for IS NULL predicates: zones
	// known null-free skip, all-NULL zones are covered. Implementations
	// that track no null counts may decline (Enabled=false).
	PruneNulls() PruneResult
	// Observe feeds a probe's result back once its query's scan has
	// completed; it is the one place a learning skipper updates what it
	// learned, from the result alone. A query that fails never observes.
	// Non-learning skippers ignore it.
	Observe(res PruneResult)
	// Extend informs the skipper that the column grew; codes/nulls are the
	// column's full physical state.
	Extend(codes storage.Vec, nulls *bitvec.BitVec)
	// Rows returns the number of rows covered by the skipper's metadata.
	Rows() int
	// Metadata reports current structure state.
	Metadata() Metadata

	// CheckInvariants re-verifies the metadata against the column's
	// physical state — codes are exactly the Rows() rows covered — in one
	// O(rows) pass: every summary must equal the one its rows derive. The
	// engine runs it for on-demand verification sweeps; a failure drops
	// the skipper.
	CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec) error
	// SetJournal installs the sink for structural change (splits, merges,
	// arbitration flips, tail folds); structures that never
	// change shape ignore it. Each record carries the change's cause and
	// the before/after shape of the affected metadata, and the engine
	// stamps what the skipper cannot know — table/column/shard identity
	// and the triggering query's fingerprint — before appending it to the
	// adaptation ledger. Records are emitted only on structural change,
	// never per probe, so the sink stays off the scan hot path.
	SetJournal(sink func(obs.LedgerRecord))
	// Introspect copies, in one cold-path call that writes nothing, what
	// the /adaptation ROI rows need from the skipper: its dead zones. The
	// probe and maintenance counters are the engine's own; a skipper that
	// keeps no such accounts returns false, and gets no ROI row.
	Introspect() (obs.SkipperSnapshot, bool)
}

// ---------------------------------------------------------------------------
// Policy: no skipping.

// Inert answers the feedback and cold-path duties of a structure that
// never changes shape: Observe ignores the probe, SetJournal the sink, and
// Introspect reports that it keeps no accounts.
type Inert struct{}

func (Inert) Observe(PruneResult)                     {}
func (Inert) SetJournal(func(obs.LedgerRecord))       {}
func (Inert) Introspect() (obs.SkipperSnapshot, bool) { return obs.SkipperSnapshot{}, false }

// NoSkipper is the null policy: every query scans everything. It is the
// baseline the paper measures against on arbitrary data.
type NoSkipper struct {
	Inert
	rows int
}

// NewNoSkipper returns a NoSkipper over rows rows.
func NewNoSkipper(rows int) *NoSkipper { return &NoSkipper{rows: rows} }

// Prune declines: the executor performs a full scan.
func (s *NoSkipper) Prune(expr.Ranges) PruneResult { return PruneResult{Enabled: false} }

// PruneNulls declines likewise.
func (s *NoSkipper) PruneNulls() PruneResult { return PruneResult{Enabled: false} }

// Extend tracks the row count.
func (s *NoSkipper) Extend(codes storage.Vec, _ *bitvec.BitVec) { s.rows = codes.Len() }

// Rows returns the tracked row count.
func (s *NoSkipper) Rows() int { return s.rows }

// Metadata reports zero structure.
func (s *NoSkipper) Metadata() Metadata { return Metadata{Kind: "none"} }

// CheckInvariants has nothing to verify.
func (s *NoSkipper) CheckInvariants(storage.Vec, *bitvec.BitVec) error { return nil }

var _ Skipper = (*NoSkipper)(nil)
