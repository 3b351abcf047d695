// Package storage implements the in-memory columnar storage engine.
//
// Every column, regardless of logical type, is physically one vector of
// integer "codes" with an order-preserving encoding:
//
//   - Int64 columns store values directly.
//   - Float64 columns store a monotone bijection of the float's bit pattern
//     (sign-magnitude flip), so numeric order equals code order.
//   - String columns store dictionary codes from an order-preserving
//     (sealed) dictionary.
//
// Because code order always equals value order, one set of integer scan
// kernels and one zonemap implementation serve all types, mirroring how
// main-memory column stores normalize storage for fast scans.
//
// A code is logically an int64; physically the vector has one of two
// widths. An Int64 or String column holds []uint32 while every code lies in
// [0, 2^32) — a key whose domain is the row count, a row number, a
// dictionary code — and []int64 from the first code that does not: that
// code's batch opens a wide chunk from that row on (a chunk of its own is
// rewritten where it stands), consolidation rewrites the vector once, the
// way it copies once, and the column stays wide. Float64 columns are wide
// by type. There is no option and no frame of reference: the width
// is a function of the data, zero extension of a narrow code is its value,
// and a NULL row's slot holds 0 at either width, masked by the null bitmap.
// Readers take the vector as a Vec — one of the two slices, with Len, At
// and Slice — and the scan kernels are generic over the element type (Code);
// what is derived from codes — zone bounds, predicate intervals — stays
// int64. On disk a column's rows keep their width: a Block (block.go) is
// the one layout of a batch's codes in WAL records and snapshots, encoded
// from a staged batch and staged back by StageBlock. Column.Codes, a []int64 of the whole
// column (a widened copy of a narrow one), remains only for the repository
// benchmark's scan rung.
//
// Rows arrive as batches of dynamic Values, and a pass over a batch is the
// cost of loading it (a 64 Ki-row batch of 40-byte cells is megabytes, far
// past L2), so a column walks a batch once: Column.Stage checks a cell
// (type, NaN, sealed-dictionary membership) and encodes it in the same
// iteration of one typed loop, writing the code into room Len() does not
// count yet — the vector's spare capacity, what the last pending chunk has
// left, a new chunk — and noting NULLs and strings new to the dictionary
// beside it; Column.Commit then publishes the lot in O(1) plus those rare
// parts. Until Commit nothing a reader can observe has changed, so a batch
// one column refuses, or one the write-ahead log refuses, is dropped where
// it is staged and there is nothing to roll back: the table stages every
// column before it commits any, so a batch is all or nothing, and the engine
// logs it to the WAL between the two (stage -> log -> commit); columns share
// no state, so the table stages a large batch's columns on separate
// goroutines. The typed single-value appenders (AppendInt and friends)
// remain for the experiment harness, which builds a column code by code,
// and as the row-at-a-time reference the batch path is tested against.
//
// Readers need the codes as one slice; writers do not, until someone
// reads. A batch that fits a column's spare capacity extends its tail; one
// that does not is parked in a pending chunk beside the vector (exactly
// batch-sized, at least chunkFloor rows, narrow unless the column is
// already wide; later batches fill a chunk before opening another), and
// Len counts it from Commit on. A chunk is narrow when it is stored, not
// only once it is consolidated: a column nobody reads keeps its rows at 4
// bytes each. The
// first reader — Vec, or any accessor that indexes codes — consolidates the
// column back into one slice with at most one reallocation: exactly Len()
// long when the rows outgrew the capacity by more than a quarter (a bulk
// load: the column is copied once instead of at every rung of a growth
// ladder, and keeps no slack) or when a wide chunk meets a narrow vector,
// one rung of append's ladder otherwise (small batches between reads keep
// append's amortised cost). So after any read capacity is at most
// max(Len(), one rung above Len()-1), and total copying is linear either
// way. A column nobody reads is never copied.
//
// Concurrency: an append and the first read after it both mutate the
// column and must be serialised by the caller — the engine does both under
// its mutex, consolidating the columns a query names before it starts scan
// workers. A consolidated column is safe for concurrent reads.
package storage

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// Type is the logical type of a column.
type Type uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Type = iota
	// Float64 is a 64-bit floating-point column.
	Float64
	// String is a dictionary-encoded string column.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// EncodeFloat64 maps f to an int64 such that for all a, b:
// a < b  <=>  EncodeFloat64(a) < EncodeFloat64(b)  (with -0 == +0 collapsing
// to the same code and NaN excluded — callers must reject NaN).
func EncodeFloat64(f float64) int64 {
	if f == 0 {
		f = 0 // collapse -0 to +0
	}
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u // negative: flip all bits
	} else {
		u |= 1 << 63 // positive: flip sign bit
	}
	return int64(u - (1 << 63)) // recentre so code order == signed int64 order
}

// DecodeFloat64 inverts EncodeFloat64.
func DecodeFloat64(c int64) float64 {
	u := uint64(c) + (1 << 63)
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u)
}

// Value is a dynamically typed cell value used at API boundaries (ingest,
// result materialization, SQL literals). Scans never allocate Values.
type Value struct {
	typ  Type
	null bool
	i    int64
	f    float64
	s    string
}

// NullValue returns a NULL of the given type.
func NullValue(t Type) Value { return Value{typ: t, null: true} }

// IntValue returns an Int64 value.
func IntValue(v int64) Value { return Value{typ: Int64, i: v} }

// FloatValue returns a Float64 value.
func FloatValue(v float64) Value { return Value{typ: Float64, f: v} }

// StringValue returns a String value.
func StringValue(v string) Value { return Value{typ: String, s: v} }

// Type returns the value's logical type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Int returns the int64 payload; valid only when Type()==Int64 and not null.
func (v Value) Int() int64 { return v.i }

// Float returns the float64 payload; valid only when Type()==Float64.
func (v Value) Float() float64 { return v.f }

// Str returns the string payload; valid only when Type()==String.
func (v Value) Str() string { return v.s }

// String renders the value for display.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Int64:
		return fmt.Sprintf("%d", v.i)
	case Float64:
		return fmt.Sprintf("%g", v.f)
	case String:
		return v.s
	default:
		return "?"
	}
}

// MarshalJSON renders the value as its natural JSON form (see AppendJSON,
// the one cell encoder of the engine's wire format, which must stay
// stable).
func (v Value) MarshalJSON() ([]byte, error) {
	if !v.null && v.typ > String {
		return nil, fmt.Errorf("storage: cannot marshal value of type %d", v.typ)
	}
	return v.AppendJSON(nil), nil
}

// Equal reports deep equality of two values (NULL equals NULL here; SQL
// three-valued logic lives in the predicate layer, not in Value).
func (v Value) Equal(o Value) bool {
	if v.typ != o.typ || v.null != o.null {
		return false
	}
	if v.null {
		return true
	}
	switch v.typ {
	case Int64:
		return v.i == o.i
	case Float64:
		return v.f == o.f
	case String:
		return v.s == o.s
	}
	return false
}

// Compare orders two values of one logical type as their codes do, with
// NULL after every non-NULL value: -1, 0 or +1. It is the order of result
// keys (ORDER BY values, GROUP BY keys, MIN/MAX) once they have left their
// column's dictionary.
func Compare(a, b Value) int {
	if a.null || b.null {
		switch {
		case a.null == b.null:
			return 0
		case a.null:
			return 1
		}
		return -1
	}
	switch a.typ {
	case Float64:
		return cmp.Compare(a.f, b.f)
	case String:
		return strings.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i)
}
