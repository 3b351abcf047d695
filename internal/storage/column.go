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
// falls outside [0, 2^32); the vector (or the staged chunk it arrived in) is
// then rewritten once as int64 and the column stays wide. A Float64 column
// is wide by type. The width is a function of the data alone; readers get
// the vector at its width through Vec.
//
// A batch that does not fit the spare capacity is staged in pending chunks
// beside the code vector, and the first reader of codes consolidates the
// column back into one slice (see Consolidate). So an append and the first
// read after it both mutate the column and must be serialised by the
// caller; a consolidated column is safe for concurrent reads. The null
// bitmap and the dictionary are indexed by row and by value, not through
// codes: staging does not touch them. A NULL row's code slot holds 0 and is
// masked by the bitmap everywhere.
type Column struct {
	name string
	typ  Type
	// wide: some code does not fit 32 bits (always, for Float64). New
	// chunks open wide and Consolidate leaves a wide vector; until it runs
	// the vector itself may still be narrow beside a wide chunk.
	wide    bool
	vec     Vec
	pending []Vec          // staged rows after vec, in row order; only the last chunk has spare capacity
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

// Len returns the number of rows, staged ones included.
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
			codes = make([]int64, n)
			c.vec.copyWide(codes)
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

// escalate rewrites slot — the vector or a staged chunk, narrow — as int64
// codes, exactly as long as it is, and makes the column wide. It runs at
// most once per vector or chunk, at the first code that does not fit.
func (c *Column) escalate(slot *Vec) {
	w := make([]int64, len(slot.N))
	slot.copyWide(w)
	*slot = Vec{W: w}
	c.wide = true
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
		c.escalate(&c.vec)
	}
	if c.wide {
		c.vec.W = append(c.vec.W, code)
	} else {
		c.vec.N = append(c.vec.N, uint32(code))
	}
	c.growNulls(c.vec.Len())
}

// CheckRows reports the first reason cell col of rows could not be
// appended to the column: a non-NULL value of another type, a NaN, or a
// string a sealed dictionary does not hold. It mutates nothing, so a batch
// that passes on every column can be logged and then applied without a
// failure path (see AppendRows). Every row must have more than col cells;
// the table checks arity before it checks columns.
func (c *Column) CheckRows(rows [][]Value, col int) error {
	switch c.typ {
	case Float64:
		for i := range rows {
			v := &rows[i][col]
			if v.null {
				continue
			}
			if v.typ != Float64 {
				return c.mismatch(i, v)
			}
			if v.f != v.f {
				return fmt.Errorf("row %d: %w", i, ErrNaN)
			}
		}
	case String:
		sealed := c.dict.Sealed()
		for i := range rows {
			v := &rows[i][col]
			if v.null {
				continue
			}
			if v.typ != String {
				return c.mismatch(i, v)
			}
			if sealed {
				if _, ok := c.dict.Code(v.s); !ok {
					return fmt.Errorf("row %d: string %q: %w", i, v.s, dict.ErrSealed)
				}
			}
		}
	default:
		for i := range rows {
			if v := &rows[i][col]; v.typ != c.typ && !v.null {
				return c.mismatch(i, v)
			}
		}
	}
	return nil
}

func (c *Column) mismatch(row int, v *Value) error {
	return fmt.Errorf("row %d: %w: %s value into %s column %q", row, ErrTypeMismatch, v.typ, c.typ, c.name)
}

// AppendRows appends cell col of every row: the one append kernel, a typed
// loop storing into room reserved once per batch — the tail of the code
// vector when the batch fits its spare capacity, pending chunks when it
// does not (see reserve). The batch must have passed CheckRows since the
// column last changed: nothing is re-checked, and the one failure still
// visible here — a string a sealed dictionary lacks — panics. Distinct
// columns may run AppendRows over the same rows concurrently: a column owns
// its codes, chunks, bitmap and dictionary, and rows are only read.
func (c *Column) AppendRows(rows [][]Value, col int) {
	for len(rows) > 0 {
		base := c.Len()
		slot, at := c.reserve(len(rows))
		n := slot.Len() - at
		c.storeRows(slot, at, rows[:n], col, base)
		rows = rows[n:]
	}
	c.growNulls(c.Len())
}

// reserve makes room at the column's end for up to n more rows (at least
// one) and returns where: the vector or chunk that holds the room, already
// extended over it, and the offset the room starts at. The caller
// overwrites every element. A batch that fits the spare capacity of a
// column with nothing staged extends the tail. Any other first fills what
// the last pending chunk has left and then opens a chunk of exactly the
// rows that remain — never smaller than chunkFloor, narrow unless the
// column is already wide — so a bulk load allocates each row's slot once
// and copies it once, at consolidation, instead of copying the whole column
// at every rung of a growth ladder; and staged rows never hold more than
// one chunkFloor of room no row occupies.
func (c *Column) reserve(n int) (slot *Vec, at int) {
	if len(c.pending) == 0 {
		if at = c.vec.Len(); at+n <= c.vec.capacity() {
			c.vec = c.vec.Slice(0, at+n)
			return &c.vec, at
		}
	} else if slot = &c.pending[len(c.pending)-1]; slot.Len() < slot.capacity() {
		at = slot.Len()
		*slot = slot.Slice(0, min(at+n, slot.capacity()))
		c.staged += slot.Len() - at
		return slot, at
	}
	var chunk Vec
	if room := max(n, chunkFloor); c.wide {
		chunk.W = make([]int64, n, room)
	} else {
		chunk.N = make([]uint32, n, room)
	}
	c.pending = append(c.pending, chunk)
	c.staged += n
	return &c.pending[len(c.pending)-1], 0
}

// storeRows stores cell col of rows into slot from offset at on; the first
// of them is row base of the column. A narrow slot takes codes until one
// does not fit, is rewritten wide there, and takes the rest as int64.
func (c *Column) storeRows(slot *Vec, at int, rows [][]Value, col, base int) {
	done := 0
	if slot.W == nil {
		if done = storeCodes(c, slot.N[at:], rows, col, base); done == len(rows) {
			return
		}
		c.escalate(slot)
	}
	storeCodes(c, slot.W[at+done:], rows[done:], col, base+done)
}

// storeCodes is AppendRows' typed store loop at one width: cell col of rows
// into dst, whose first element is row base of the column. It returns how
// many rows it stored: all of them, or those before the first code that T
// cannot represent.
func storeCodes[T Code](c *Column, dst []T, rows [][]Value, col, base int) int {
	switch c.typ {
	case Int64:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				c.setNull(base + i)
				continue
			}
			if !fits[T](v.i) {
				return i
			}
			dst[i] = T(v.i)
		}
	case Float64:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				c.setNull(base + i)
				continue
			}
			code := EncodeFloat64(v.f)
			if !fits[T](code) {
				return i
			}
			dst[i] = T(code)
		}
	case String:
		for i, r := range rows {
			v := &r[col]
			if v.null {
				dst[i] = 0
				c.setNull(base + i)
				continue
			}
			code, err := c.dict.Insert(v.s)
			if err != nil {
				panic(fmt.Sprintf("storage: AppendRows on column %q without CheckRows: %v", c.name, err))
			}
			if !fits[T](code) {
				return i
			}
			dst[i] = T(code)
		}
	}
	return len(rows)
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

// SetInt overwrites row i with v (Int64 columns). Used by the update path;
// the caller (engine) is responsible for informing skippers so zone bounds
// stay sound.
func (c *Column) SetInt(i int, v int64) error {
	if c.typ != Int64 {
		return fmt.Errorf("%w: SetInt on %s column %q", ErrTypeMismatch, c.typ, c.name)
	}
	c.Consolidate()
	c.clearNull(i)
	if !c.wide && !fits[uint32](v) {
		c.escalate(&c.vec)
	}
	if c.wide {
		c.vec.W[i] = v
	} else {
		c.vec.N[i] = uint32(v)
	}
	return nil
}

// SetFloat overwrites row i with v (Float64 columns).
func (c *Column) SetFloat(i int, v float64) error {
	if c.typ != Float64 {
		return fmt.Errorf("%w: SetFloat on %s column %q", ErrTypeMismatch, c.typ, c.name)
	}
	if math.IsNaN(v) {
		return ErrNaN
	}
	c.Consolidate()
	c.clearNull(i)
	c.vec.W[i] = EncodeFloat64(v)
	return nil
}

// Value materializes row i as a dynamic Value.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(c.typ)
	}
	code := c.Vec().At(i)
	switch c.typ {
	case Int64:
		return IntValue(code)
	case Float64:
		return FloatValue(DecodeFloat64(code))
	case String:
		return StringValue(c.dict.Value(code))
	}
	panic("storage: unknown column type")
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

func (c *Column) clearNull(i int) {
	if c.nulls != nil && i < c.nulls.Len() && c.nulls.Get(i) {
		c.nulls.Clear(i)
		c.nNull--
	}
}
