package storage

import (
	"errors"
	"fmt"
	"math"

	"adskip/internal/bitvec"
	"adskip/internal/dict"
)

// Common column errors.
var (
	ErrTypeMismatch = errors.New("storage: value type does not match column type")
	ErrNaN          = errors.New("storage: NaN is not storable (no total order)")
)

// Column is a typed, append-only column vector of codes in value order (see
// package doc); logical type only affects encode/decode at the boundary.
// The codes of an Int64 or String column are stored as uint32 until one
// falls outside [0, 2^32); from that row on they are stored as int64, the
// vector is rewritten once, and the column stays wide. A Float64 column
// is wide by type. The width is a function of the data alone; readers get
// the vector at its width through Vec.
//
// A batch arrives in two steps: Stage checks and encodes it into room the
// column does not count yet, Commit publishes it (see Stage). Committed rows
// that did not fit the vector's spare capacity sit in pending chunks beside
// it — Staged() counts them — and the first reader of codes consolidates the
// column back into one slice (see Consolidate). So an append and the first
// read after it both mutate the column and must be serialised by the
// caller; a consolidated column is safe for concurrent reads. The null
// bitmap and the dictionary are indexed by row and by value, not through
// codes: pending chunks do not touch them. A NULL row's code slot holds 0
// and is masked by the bitmap everywhere.
type Column struct {
	name string
	typ  Type
	// wide: some code does not fit 32 bits (always, for Float64). New
	// chunks open wide and Consolidate leaves a wide vector; until it runs
	// the vector itself may still be narrow beside a wide chunk.
	wide    bool
	vec     Vec
	pending []Vec          // committed rows after vec, in row order; only the last chunk has spare capacity
	staged  int            // rows in pending
	nulls   *bitvec.BitVec // lazily allocated; set bit = NULL at that row
	nNull   int
	dict    *dict.Dict // non-nil iff typ == String
}

// chunkFloor is the smallest pending chunk, in rows: a 4 or 8 KiB page, so
// that one-row and 256-row batches share a chunk instead of each leaving
// an allocation behind, while the spare room staged rows can hold stays
// under a page per column.
const chunkFloor = 1024

// NewColumn returns an empty column of the given logical type.
func NewColumn(name string, typ Type) *Column {
	c := &Column{name: name, typ: typ, wide: typ == Float64}
	if typ == String {
		c.dict = dict.New()
	}
	return c
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Type returns the column's logical type.
func (c *Column) Type() Type { return c.typ }

// Len returns the number of rows, those in pending chunks included; a
// batch Stage has encoded and Commit has not published is not rows yet.
func (c *Column) Len() int { return c.vec.Len() + c.staged }

// Staged returns how many of the rows sit in pending chunks, waiting for a
// reader to consolidate them.
func (c *Column) Staged() int { return c.staged }

// NullCount returns the number of NULL rows.
func (c *Column) NullCount() int { return c.nNull }

// Vec exposes the physical code vector for scan kernels and metadata
// builders, consolidating staged rows first: it is always the whole column
// as one slice, at the column's width. The view aliases column storage:
// callers must treat it as read-only and must not retain it across appends.
func (c *Column) Vec() Vec {
	c.Consolidate()
	return c.vec
}

// Codes returns the whole column as int64 codes: the vector itself when it
// is wide, a widened copy of a narrow one. It is kept for the repository
// benchmark's scan rung, which compiles against it; nothing on the query
// path calls it (Vec is the reader's accessor).
func (c *Column) Codes() []int64 {
	v := c.Vec()
	if v.N == nil {
		return v.W
	}
	w := make([]int64, len(v.N))
	v.copyWide(w)
	return w
}

// Consolidate moves staged rows into the code vector; on a column with
// none it only reads. Every accessor that indexes codes calls it, so
// correctness never depends on a caller remembering to; the engine calls
// it under its mutex for the columns a query reads, before any scan worker
// starts, so workers only ever see consolidated columns.
//
// The vector is reallocated once. When one ladder rung could not be relied
// on to hold the rows (they outgrow the capacity by more than a quarter: a
// bulk load) the new vector is exactly Len() long: the staged rows pay for
// the copy of the old ones at most four to one, and no slack is left on a
// column that was loaded in one go. Otherwise (a trickle of small batches
// between reads) it grows by one rung of growLadder, the amortised growth
// of append. Either way a reallocation follows growth of at least 1.25x,
// and capacity <= max(Len(), one rung above Len()-1). A narrow vector
// beside a wide chunk cannot be grown in place: that one consolidation
// rewrites it wide, exactly Len() long.
func (c *Column) Consolidate() {
	if len(c.pending) != 0 {
		c.consolidate()
	}
}

// consolidate is Consolidate's slow path, kept apart so that the check
// inlines into per-row callers of Vec and Value.
func (c *Column) consolidate() {
	at, n := c.vec.Len(), c.Len()
	if !c.wide {
		codes := grow(c.vec.N, n)
		for _, chunk := range c.pending {
			at += copy(codes[at:], chunk.N)
		}
		c.vec = Vec{N: codes}
	} else {
		codes := c.vec.W
		if codes == nil {
			codes = c.vec.widened(n).W
		} else {
			codes = grow(codes, n)
		}
		for _, chunk := range c.pending {
			at += chunk.copyWide(codes[at:])
		}
		c.vec = Vec{W: codes}
	}
	c.pending, c.staged = nil, 0
}

// grow returns s resliced to n elements under Consolidate's sizing rule.
// Elements between the old length and n are unspecified.
func grow[T Code](s []T, n int) []T {
	if n-cap(s) > cap(s)/4 {
		grown := make([]T, n)
		copy(grown, s)
		return grown
	}
	return growLadder(s, n)
}

// escalate rewrites the consolidated, narrow vector as int64 codes, exactly
// as long as it is, and makes the column wide: what appendCode does once,
// at the first code that does not fit.
func (c *Column) escalate() {
	c.vec, c.wide = c.vec.widened(c.vec.Len()), true
}

// Dict returns the string dictionary, or nil for non-string columns.
func (c *Column) Dict() *dict.Dict { return c.dict }

// HasNulls reports whether any row is NULL.
func (c *Column) HasNulls() bool { return c.nNull > 0 }

// Nulls returns the null bitmap (set bit = NULL), or nil when the column
// has no NULLs. Read-only.
func (c *Column) Nulls() *bitvec.BitVec {
	if c.nNull == 0 {
		return nil
	}
	return c.nulls
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.nulls != nil && i < c.nulls.Len() && c.nulls.Get(i)
}

// AppendInt appends an int64; the column must be Int64.
func (c *Column) AppendInt(v int64) error {
	if c.typ != Int64 {
		return fmt.Errorf("%w: AppendInt on %s column %q", ErrTypeMismatch, c.typ, c.name)
	}
	c.appendCode(v)
	return nil
}

// AppendFloat appends a float64; the column must be Float64. NaN is
// rejected because it has no position in the total order that data
// skipping relies on.
func (c *Column) AppendFloat(v float64) error {
	if c.typ != Float64 {
		return fmt.Errorf("%w: AppendFloat on %s column %q", ErrTypeMismatch, c.typ, c.name)
	}
	if math.IsNaN(v) {
		return ErrNaN
	}
	c.appendCode(EncodeFloat64(v))
	return nil
}

// AppendString appends a string; the column must be String. If the
// dictionary has been sealed and v is unknown, the append fails with
// dict.ErrSealed — callers should Seal only after bulk load, or use
// table-level load paths that seal at snapshot time.
func (c *Column) AppendString(v string) error {
	if c.typ != String {
		return fmt.Errorf("%w: AppendString on %s column %q", ErrTypeMismatch, c.typ, c.name)
	}
	code, err := c.dict.Insert(v)
	if err != nil {
		return err
	}
	c.appendCode(code)
	return nil
}

// AppendNull appends a NULL row. Its code slot holds 0 (it fits either
// width); every reader masks it with the null bitmap.
func (c *Column) AppendNull() {
	c.appendCode(0)
	c.setNull(c.vec.Len() - 1)
}

// appendCode is the single-value appenders' store: plain append onto the
// consolidated vector, for loaders that build a column code by code.
func (c *Column) appendCode(code int64) {
	c.Consolidate()
	if !c.wide && !fits[uint32](code) {
		c.escalate()
	}
	if c.wide {
		c.vec.W = append(c.vec.W, code)
	} else {
		c.vec.N = append(c.vec.N, uint32(code))
	}
	c.growNulls(c.vec.Len())
}

// StagedRows is one column of a row batch on its way in: every cell checked
// and encoded, the codes written into room the column does not count yet.
// Commit publishes it; a caller that drops it instead (another column
// refused the batch, the log refused the record) leaves nothing to undo —
// length, width, capacity, pending chunks, null bitmap and dictionary are
// untouched until Commit. It is only good for the column as it was when the
// rows were staged.
type StagedRows struct {
	base   int              // the column's Len() when the rows were staged
	n      int              // rows staged
	onTail int              // how many of them sit on the spare capacity of the column's tail slot
	closed bool             // a code did not fit that slot: nothing more may go there
	wide   bool             // the column is wide once these rows are in it
	chunk  Vec              // the rows after those on the tail slot, in a chunk of their own
	nulls  []int            // batch rows that are NULL
	strs   []string         // strings the dictionary lacks, first seen first: string k was encoded as dict.Len()+k
	codes  map[string]int64 // strs' provisional codes
}

// begin readies s for a batch of n rows staged at the column's end. A chunk
// s still holds was never committed — Commit empties s — so it stays on as
// room the batch's own chunk may be cut from (newChunk): a caller that
// stages batch after batch into one StagedRows and drops each
// (Table.StageApart) allocates its chunks once.
func (c *Column) begin(s *StagedRows, n int) {
	room := s.chunk
	*s = StagedRows{base: c.Len(), n: n, wide: c.wide}
	if room.capacity() > 0 {
		s.chunk = room.Slice(0, 0)
	}
}

// newChunk returns a chunk of n codes at the batch's width with room for
// chunkFloor at least: cut from the room begin left in s.chunk when that is
// at the width and large enough, else new. The stage writes every code.
func (s *StagedRows) newChunk(n int) Vec {
	room := max(n, chunkFloor)
	switch {
	case s.wide && cap(s.chunk.W) >= room:
		return Vec{W: s.chunk.W[:n:room]}
	case s.wide:
		return Vec{W: make([]int64, n, room)}
	case cap(s.chunk.N) >= room:
		return Vec{N: s.chunk.N[:n:room]}
	}
	return Vec{N: make([]uint32, n, room)}
}

// Stage checks and encodes cell col of every row in one typed loop — each
// cell is read once — and leaves the result in s, overwriting what s held.
// It reports the first reason the column could not take the batch (a
// non-NULL value of another type, a NaN, a string a sealed dictionary does
// not hold); s is then of no use. Otherwise the rows' codes sit in the
// spare capacity of the code vector when the whole batch fits there and
// nothing is pending, else in what the last pending chunk has left and
// then in a new chunk of exactly the rows that remain (never smaller than
// chunkFloor, narrow unless the column is already wide), so a bulk load
// allocates each row's slot once and copies it once, at consolidation, and
// pending rows never hold more than one chunkFloor of room no row occupies.
// None of that room is visible through the column before Commit. Every row
// must have more than col cells; the table checks arity first. Distinct
// columns may stage the same rows concurrently: a column reads only itself
// and the rows.
//
// A code that does not fit a narrow slot other rows already occupy leaves
// that slot alone: the slot is closed at the last row that fitted and the
// rest of the batch goes into a wide chunk; Consolidate rewrites a narrow
// vector that meets one. A new chunk is nobody's yet and is rewritten wide
// where it stands, exactly as long as its rows.
func (c *Column) Stage(s *StagedRows, rows [][]Value, col int) error {
	c.begin(s, len(rows))
	return c.stage(s, func(dst Vec, at, first, n int) (int, error) {
		return c.stageCells(s, dst, at, rows[first:first+n], col, first)
	})
}

// stage finds room for the s.n rows of a batch — the tail slot's spare
// capacity, then a new chunk — and has fill encode them there: batch rows
// [first, first+n) into dst from offset at on. fill returns how many it
// stored, all of them or those before the first code dst's width cannot
// hold, and the rest goes wide (see Stage).
func (c *Column) stage(s *StagedRows, fill func(dst Vec, at, first, n int) (int, error)) error {
	if slot, room := c.spare(s.n); room > 0 {
		at := slot.Len()
		done, err := fill(slot.Slice(0, at+room), at, 0, room)
		if err != nil {
			return err
		}
		s.onTail = done
		if done < room {
			s.closed, s.wide = true, true
		}
	}
	if rest := s.n - s.onTail; rest > 0 {
		s.chunk = s.newChunk(rest)
		k, err := fill(s.chunk, 0, s.onTail, rest)
		if err == nil && k < rest {
			s.chunk, s.wide = s.chunk.Slice(0, k).widened(rest), true
			_, err = fill(s.chunk, k, s.onTail+k, rest-k)
		}
		return err
	}
	return nil
}

// Commit publishes rows Stage accepted, in O(1) but for the batch's NULLs
// and new strings, and empties s: the tail slot's length (a closed slot's
// capacity clipped to it, so that only the last chunk ever has room), the
// new chunk, the width, then the NULL bits and the dictionary entries — in
// first-seen order, which makes the provisional codes the real ones. The
// column must not have changed since the rows were staged.
func (c *Column) Commit(s *StagedRows) {
	if s.base != c.Len() {
		panic(fmt.Sprintf("storage: column %q has %d rows, the batch was staged at %d", c.name, c.Len(), s.base))
	}
	slot := c.tail()
	*slot = slot.Slice(0, slot.Len()+s.onTail)
	if s.closed {
		*slot = slot.clip()
	}
	if s.chunk.Len() > 0 {
		c.pending = append(c.pending, s.chunk)
	}
	c.staged, c.wide = s.base+s.n-c.vec.Len(), s.wide
	for _, row := range s.nulls {
		c.setNull(s.base + row)
	}
	for _, str := range s.strs {
		if _, err := c.dict.Insert(str); err != nil {
			panic(fmt.Sprintf("storage: column %q: dictionary changed under a staged batch: %v", c.name, err))
		}
	}
	c.growNulls(c.Len())
	*s = StagedRows{}
}

// tail returns the slot the column's last row is in, the only one that may
// have spare capacity: the vector, or the last pending chunk.
func (c *Column) tail() *Vec {
	if len(c.pending) == 0 {
		return &c.vec
	}
	return &c.pending[len(c.pending)-1]
}

// spare returns the tail slot and how many rows of a batch of n go onto its
// spare capacity: as many as a pending chunk has room for; on the vector
// all of them or none (a vector's tail is never half used).
func (c *Column) spare(n int) (slot *Vec, room int) {
	slot = c.tail()
	room = slot.capacity() - slot.Len()
	if n > room && slot == &c.vec {
		return slot, 0
	}
	return slot, min(n, room)
}

// stageCells runs the staging loop over dst at the width it has: cell col
// of rows into dst from offset at on; rows[0] is row first of the batch. It
// returns how many rows it encoded: all of them, or those before the first
// code a narrow dst cannot hold.
func (c *Column) stageCells(s *StagedRows, dst Vec, at int, rows [][]Value, col, first int) (int, error) {
	if dst.W != nil {
		return stageCodes(c, s, dst.W[at:], rows, col, first)
	}
	return stageCodes(c, s, dst.N[at:], rows, col, first)
}

// stageCodes is the one loop a cell passes through on its way in, at one
// width: check it, encode it, store the code. A NULL (of any type) stores 0
// and is noted in s; a string the dictionary lacks gets the code it will
// have once the batch's new strings are inserted in the order they were
// met.
func stageCodes[T Code](c *Column, s *StagedRows, dst []T, rows [][]Value, col, first int) (int, error) {
	dst = dst[:len(rows)] // one bounds check here, none per store
	switch c.typ {
	case Int64:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				s.nulls = append(s.nulls, first+i)
				continue
			}
			if v.typ != Int64 {
				return i, c.mismatch(first+i, v)
			}
			if !fits[T](v.i) {
				return i, nil
			}
			dst[i] = T(v.i)
		}
	case Float64:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				s.nulls = append(s.nulls, first+i)
				continue
			}
			if v.typ != Float64 {
				return i, c.mismatch(first+i, v)
			}
			if v.f != v.f {
				return i, fmt.Errorf("row %d: %w", first+i, ErrNaN)
			}
			code := EncodeFloat64(v.f)
			if !fits[T](code) {
				return i, nil
			}
			dst[i] = T(code)
		}
	case String:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				s.nulls = append(s.nulls, first+i)
				continue
			}
			if v.typ != String {
				return i, c.mismatch(first+i, v)
			}
			code, ok := c.dict.Code(v.s)
			if !ok {
				if c.dict.Sealed() {
					return i, fmt.Errorf("row %d: string %q: %w", first+i, v.s, dict.ErrSealed)
				}
				code = s.provisional(v.s, c.dict.Len())
			}
			if !fits[T](code) {
				return i, nil
			}
			dst[i] = T(code)
		}
	}
	return len(rows), nil
}

// provisional returns the code str will have when the batch's new strings
// join a dictionary of known entries in first-seen order.
func (s *StagedRows) provisional(str string, known int) int64 {
	code, ok := s.codes[str]
	if !ok {
		if s.codes == nil {
			s.codes = make(map[string]int64)
		}
		code = int64(known + len(s.strs))
		s.codes[str] = code
		s.strs = append(s.strs, str)
	}
	return code
}

func (c *Column) mismatch(row int, v *Value) error {
	return fmt.Errorf("row %d: %w: %s value into %s column %q", row, ErrTypeMismatch, v.typ, c.typ, c.name)
}

// growLadder returns s resliced to n elements, reallocated to the next
// capacity append would give a full s: the trickle rung of Consolidate,
// which only calls it when n is within a quarter of cap(s), so the loop
// body runs once. Growing by a rung rather than to n is what keeps small
// batches between reads at append's amortised cost; sizing each
// reallocation to the batch instead (slices.Grow) was measured at +15% live
// heap on ingest-mixed (EXPERIMENTS.md, "bulk load"). Elements between the
// old length and n are unspecified; the caller overwrites them.
func growLadder[T Code](s []T, n int) []T {
	for cap(s) < n {
		s = append(s[:cap(s)], 0)
	}
	return s[:n]
}

// Value materializes row i as a dynamic Value.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(c.typ)
	}
	return c.decode(c.Vec().At(i))
}

// decode is the dynamic Value of a non-NULL code.
func (c *Column) decode(code int64) Value {
	switch c.typ {
	case Int64:
		return IntValue(code)
	case Float64:
		return FloatValue(DecodeFloat64(code))
	}
	return StringValue(c.dict.Value(code))
}

// Values writes the value of each of rows, as Value returns it, into dst
// from dst[0] on, one every stride cells: what a result materializes, with
// the column's type and vector resolved once rather than per cell.
func (c *Column) Values(dst []Value, stride int, rows []uint32) {
	v, nulls := c.Vec(), c.Nulls()
	for i, r := range rows {
		if nulls != nil && nulls.Get(int(r)) {
			dst[i*stride] = NullValue(c.typ)
		} else {
			dst[i*stride] = c.decode(v.At(int(r)))
		}
	}
}

// EncodeValue converts a non-null dynamic value of the column's type into
// its physical code, without appending. For strings it requires the value
// to already exist in the dictionary (comma-ok semantics): absent strings
// return ok=false, which predicate planners use to recognize trivially
// empty EQ predicates and to clamp range bounds.
func (c *Column) EncodeValue(v Value) (code int64, ok bool, err error) {
	if v.IsNull() {
		return 0, false, errors.New("storage: cannot encode NULL")
	}
	if v.Type() != c.typ {
		return 0, false, fmt.Errorf("%w: %s vs column %s", ErrTypeMismatch, v.Type(), c.typ)
	}
	switch c.typ {
	case Int64:
		return v.Int(), true, nil
	case Float64:
		if math.IsNaN(v.Float()) {
			return 0, false, ErrNaN
		}
		return EncodeFloat64(v.Float()), true, nil
	case String:
		code, ok := c.dict.Code(v.Str())
		return code, ok, nil
	}
	return 0, false, fmt.Errorf("storage: unknown column type %v", c.typ)
}

// SealDict seals a string column's dictionary into order-preserving form,
// rewriting all stored codes through the remap. Returns the remap (or nil
// for non-string columns). After sealing, code order equals string order
// and zonemap pruning on this column is sound for range predicates.
func (c *Column) SealDict() []int64 {
	if c.typ != String || c.dict.Sealed() {
		return nil
	}
	remap := c.dict.Seal()
	if v := c.Vec(); v.W != nil {
		remapCodes(c, v.W, remap)
	} else {
		remapCodes(c, v.N, remap)
	}
	return remap
}

// remapCodes rewrites every non-NULL code through remap, a permutation of
// the dictionary's codes: what fitted the vector's width still does.
func remapCodes[T Code](c *Column, codes []T, remap []int64) {
	for i, code := range codes {
		if !c.IsNull(i) {
			codes[i] = T(remap[code])
		}
	}
}

// DictSorted reports whether string predicates can be planned as code
// ranges on this column (always true for non-string columns).
func (c *Column) DictSorted() bool {
	return c.typ != String || c.dict.Sealed()
}

// growNulls keeps the null bitmap exactly as long as the column so that
// range operations over the bitmap (zone builders, kernels) never index
// past its end.
func (c *Column) growNulls(n int) {
	if c.nulls == nil {
		return
	}
	c.nulls.Grow(n)
}

// setNull marks row as NULL, allocating the bitmap at the column's first
// NULL.
func (c *Column) setNull(row int) {
	if c.nulls == nil {
		c.nulls = bitvec.New(0)
	}
	c.nulls.Grow(row + 1)
	c.nulls.Set(row)
	c.nNull++
}
