// Package wal implements a write-ahead log for the engine's mutation
// path: append batches and in-place updates are logged as length-prefixed
// CRC32C-checksummed records before they touch the in-memory columns, so
// a process killed at any instant can replay its way back to exactly the
// acknowledged state.
//
// An append is logged as the column blocks its stage already encoded (one
// storage.Block per column, codes at the column's width, NULL rows as a
// list) so recovery replays blocks, not rows, and a table snapshot is a
// stream of the same records. Concurrent writers coalesce into one fsync
// via group commit; see Log. Segments rotate at a size threshold and
// sealed segments are recycled instead of deleted once Compact declares
// them obsolete.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"adskip/internal/storage"
)

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindRows is an append batch as row-major values, the form older
	// releases logged; it is decoded, never written. KindShardRows is its
	// sharded wire form (a u32 shard number, never 0, precedes the body),
	// normalized to KindRows with Record.Shard set.
	KindRows      Kind = 1
	KindShardRows Kind = 3
	// KindUpdate is one in-place cell overwrite; KindShardUpdate its
	// sharded wire form, normalized like KindShardRows. The encoder picks
	// the wire kind from Record.Shard, so unsharded updates keep the
	// legacy bytes.
	KindUpdate      Kind = 2
	KindShardUpdate Kind = 4
	// KindColumns is an append batch as one column block per column (see
	// storage.Block). It always carries the shard number, 0 when
	// unsharded.
	KindColumns Kind = 5
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRows:
		return "rows"
	case KindUpdate:
		return "update"
	case KindShardRows:
		return "shard-rows"
	case KindShardUpdate:
		return "shard-update"
	case KindColumns:
		return "columns"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logical WAL entry. KindColumns carries an append batch as
// column blocks (KindRows, an old log's, as rows); KindUpdate carries a
// single cell overwrite. BaseRow (the table's row count when the mutation
// was logged) makes replay idempotent: a record whose rows are already
// present is skipped, and a record that would leave a gap is an error.
type Record struct {
	Kind  Kind
	Table string

	// Shard is the 1-based shard number of the engine that logged the
	// record, or 0 for an unsharded table. Recovery routes the record to
	// the same shard. BaseRow and Row are shard-local on a sharded record.
	Shard uint32

	// Append fields: BaseRow, and the batch as one block per column in
	// schema order (KindColumns) or as rows (KindRows).
	BaseRow uint64
	Blocks  []storage.Block
	Types   []storage.Type
	Rows    [][]storage.Value

	// KindUpdate fields.
	Col   string
	Row   uint64
	Value storage.Value
}

// On-disk framing: each record is
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// and each segment file starts with segMagic + u64le segment index +
// u64le base LSN (the LSN of the last record before the segment), which
// keeps LSN numbering stable across restarts and compactions. A
// KindColumns payload is
//
//	u8 kind | u32 shard | u16 table length, table | u64 base row |
//	u32 rows n | u16 columns | one storage.Block of n rows per column
//
// A block's strings are its own table of bytes, not dictionary codes:
// dictionary codes are remapped when a dictionary seals, so only the
// value itself is stable across restarts.

const (
	frameLen = 8 // u32 length + u32 crc

	// DefaultMaxRecordBytes bounds a single record's payload. Decode
	// refuses larger claims before allocating, so a corrupt length prefix
	// cannot OOM recovery.
	DefaultMaxRecordBytes = 16 << 20

	// flushBytes flushes a pending batch early once it exceeds this many
	// bytes, without waiting out the group window: a batch that large
	// already amortizes its fsync.
	flushBytes = 1 << 20

	// maxCols and maxRecordRows bound decoded claims independently of the
	// payload length check.
	maxCols       = 1 << 12
	maxRecordRows = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C of a record payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// AppendFrame appends payload to dst in the log's frame: its length, its
// CRC32C, the payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// AppendRecord appends rec to dst in its frame, encoding the payload in
// place. On an error dst comes back as it was.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	at := len(dst)
	dst = append(dst, make([]byte, frameLen)...)
	dst, err := appendPayload(dst, rec)
	if err != nil {
		return dst[:at], err
	}
	payload := dst[at+frameLen:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], Checksum(payload))
	return dst, nil
}

// NextFrame splits the first frame off b and checks it: a frame header
// or payload cut short, a length of 0 or above maxPayload, and a checksum
// mismatch are errors. It returns the payload and the bytes after it.
func NextFrame(b []byte, maxPayload int) (payload, rest []byte, err error) {
	if len(b) < frameLen {
		return nil, nil, fmt.Errorf("torn frame header (%d bytes)", len(b))
	}
	plen := int(binary.LittleEndian.Uint32(b[:4]))
	if plen == 0 || plen > maxPayload {
		return nil, nil, fmt.Errorf("implausible record length %d", plen)
	}
	if len(b)-frameLen < plen {
		return nil, nil, fmt.Errorf("torn record body (%d of %d bytes)", len(b)-frameLen, plen)
	}
	payload = b[frameLen : frameLen+plen]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	return payload, b[frameLen+plen:], nil
}

// EncodePayload renders rec as a payload (no frame header).
func EncodePayload(rec *Record) ([]byte, error) { return appendPayload(nil, rec) }

func appendPayload(dst []byte, rec *Record) ([]byte, error) {
	switch rec.Kind {
	case KindColumns:
		return appendColumns(dst, rec)
	case KindUpdate, KindShardUpdate:
		return appendUpdate(dst, rec)
	default:
		return dst, fmt.Errorf("wal: cannot encode record kind %s", rec.Kind)
	}
}

func appendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendColumns(dst []byte, rec *Record) ([]byte, error) {
	ncols := len(rec.Blocks)
	if ncols == 0 || ncols > maxCols {
		return dst, fmt.Errorf("wal: columns record with %d columns", ncols)
	}
	nrows := rec.Blocks[0].Len()
	if nrows == 0 || nrows > maxRecordRows {
		return dst, fmt.Errorf("wal: columns record with %d rows", nrows)
	}
	if len(rec.Table) > math.MaxUint16 {
		return dst, fmt.Errorf("wal: table name too long (%d bytes)", len(rec.Table))
	}
	dst = append(dst, byte(KindColumns))
	dst = binary.LittleEndian.AppendUint32(dst, rec.Shard)
	dst = appendString16(dst, rec.Table)
	dst = binary.LittleEndian.AppendUint64(dst, rec.BaseRow)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nrows))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ncols))
	for ci := range rec.Blocks {
		if n := rec.Blocks[ci].Len(); n != nrows {
			return dst, fmt.Errorf("wal: column %d has %d rows, column 0 has %d", ci, n, nrows)
		}
		dst = append(dst, rec.Blocks[ci].Bytes()...)
	}
	return dst, nil
}

func appendUpdate(b []byte, rec *Record) ([]byte, error) {
	if len(rec.Table) > math.MaxUint16 || len(rec.Col) > math.MaxUint16 {
		return b, fmt.Errorf("wal: name too long")
	}
	if rec.Value.IsNull() {
		return b, fmt.Errorf("wal: update record with NULL value")
	}
	if rec.Shard > 0 {
		b = append(b, byte(KindShardUpdate))
		b = binary.LittleEndian.AppendUint32(b, rec.Shard)
	} else {
		b = append(b, byte(KindUpdate))
	}
	b = appendString16(b, rec.Table)
	b = appendString16(b, rec.Col)
	b = binary.LittleEndian.AppendUint64(b, rec.Row)
	b = append(b, byte(rec.Value.Type()))
	switch rec.Value.Type() {
	case storage.Int64:
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.Value.Int()))
	case storage.Float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.Value.Float()))
	case storage.String:
		s := rec.Value.Str()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	default:
		return b, fmt.Errorf("wal: cannot encode value type %d", rec.Value.Type())
	}
	return b, nil
}

// reader is a bounds-checked cursor over a payload; every take reports
// truncation instead of panicking, so DecodePayload is total over
// arbitrary bytes.
type reader struct {
	b   []byte
	off int
}

var errShort = fmt.Errorf("wal: truncated payload")

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, errShort
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) string16() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodePayload parses a record payload. It never panics: any structural
// problem (truncation, absurd counts, unknown tags) returns an error, so
// recovery can treat a failed decode exactly like a failed checksum.
func DecodePayload(payload []byte) (*Record, error) {
	r := &reader{b: payload}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch Kind(kind) {
	case KindColumns:
		return decodeColumns(r)
	case KindRows:
		return decodeRows(r)
	case KindUpdate:
		return decodeUpdate(r)
	case KindShardRows, KindShardUpdate:
		shard, err := r.u32()
		if err != nil {
			return nil, err
		}
		if shard == 0 {
			// Shard 0 must use the legacy kinds; rejecting it keeps the
			// encoding canonical (one byte form per logical record).
			return nil, fmt.Errorf("wal: sharded record with shard 0")
		}
		var rec *Record
		if Kind(kind) == KindShardRows {
			rec, err = decodeRows(r)
		} else {
			rec, err = decodeUpdate(r)
		}
		if err != nil {
			return nil, err
		}
		rec.Shard = shard
		return rec, nil
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
}

func decodeRows(r *reader) (*Record, error) {
	rec := &Record{Kind: KindRows}
	var err error
	if rec.Table, err = r.string16(); err != nil {
		return nil, err
	}
	if rec.BaseRow, err = r.u64(); err != nil {
		return nil, err
	}
	ncols16, err := r.u16()
	if err != nil {
		return nil, err
	}
	nrows32, err := r.u32()
	if err != nil {
		return nil, err
	}
	ncols, nrows := int(ncols16), int(nrows32)
	if ncols == 0 || ncols > maxCols {
		return nil, fmt.Errorf("wal: rows record claims %d columns", ncols)
	}
	if nrows == 0 || nrows > maxRecordRows {
		return nil, fmt.Errorf("wal: rows record claims %d rows", nrows)
	}
	// Every column needs its type byte and its NULL bitmap in the
	// payload; reject claims the payload cannot possibly back before
	// allocating.
	if ncols*(1+(nrows+7)/8) > len(r.b)-r.off {
		return nil, errShort
	}
	rec.Types = make([]storage.Type, ncols)
	rec.Rows = make([][]storage.Value, nrows)
	cells := make([]storage.Value, nrows*ncols)
	for i := range rec.Rows {
		rec.Rows[i] = cells[i*ncols : (i+1)*ncols]
	}
	bitmapLen := (nrows + 7) / 8
	for ci := 0; ci < ncols; ci++ {
		tb, err := r.u8()
		if err != nil {
			return nil, err
		}
		typ := storage.Type(tb)
		if typ != storage.Int64 && typ != storage.Float64 && typ != storage.String {
			return nil, fmt.Errorf("wal: unknown column type %d", tb)
		}
		rec.Types[ci] = typ
		bitmap, err := r.take(bitmapLen)
		if err != nil {
			return nil, err
		}
		isNull := func(i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }
		switch typ {
		case storage.Int64:
			body, err := r.take(nrows * 8)
			if err != nil {
				return nil, err
			}
			for i := 0; i < nrows; i++ {
				if isNull(i) {
					rec.Rows[i][ci] = storage.NullValue(typ)
				} else {
					rec.Rows[i][ci] = storage.IntValue(int64(binary.LittleEndian.Uint64(body[i*8:])))
				}
			}
		case storage.Float64:
			body, err := r.take(nrows * 8)
			if err != nil {
				return nil, err
			}
			for i := 0; i < nrows; i++ {
				if isNull(i) {
					rec.Rows[i][ci] = storage.NullValue(typ)
				} else {
					f := math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
					if math.IsNaN(f) {
						return nil, fmt.Errorf("wal: NaN in float column block")
					}
					rec.Rows[i][ci] = storage.FloatValue(f)
				}
			}
		case storage.String:
			for i := 0; i < nrows; i++ {
				if isNull(i) {
					rec.Rows[i][ci] = storage.NullValue(typ)
					continue
				}
				n, err := r.u32()
				if err != nil {
					return nil, err
				}
				b, err := r.take(int(n))
				if err != nil {
					return nil, err
				}
				rec.Rows[i][ci] = storage.StringValue(string(b))
			}
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after rows record", len(r.b)-r.off)
	}
	return rec, nil
}

func decodeColumns(r *reader) (*Record, error) {
	rec := &Record{Kind: KindColumns}
	var err error
	if rec.Shard, err = r.u32(); err != nil {
		return nil, err
	}
	if rec.Table, err = r.string16(); err != nil {
		return nil, err
	}
	if rec.BaseRow, err = r.u64(); err != nil {
		return nil, err
	}
	nrows32, err := r.u32()
	if err != nil {
		return nil, err
	}
	ncols16, err := r.u16()
	if err != nil {
		return nil, err
	}
	ncols, nrows := int(ncols16), int(nrows32)
	if ncols == 0 || ncols > maxCols {
		return nil, fmt.Errorf("wal: columns record claims %d columns", ncols)
	}
	if nrows == 0 || nrows > maxRecordRows {
		return nil, fmt.Errorf("wal: columns record claims %d rows", nrows)
	}
	rest := r.b[r.off:]
	if ncols*storage.MinBlockBytes(nrows) > len(rest) {
		return nil, errShort
	}
	rec.Blocks = make([]storage.Block, ncols)
	for ci := range rec.Blocks {
		if rec.Blocks[ci], rest, err = storage.ReadBlock(rest, nrows); err != nil {
			return nil, fmt.Errorf("wal: column %d: %w", ci, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after columns record", len(rest))
	}
	return rec, nil
}

func decodeUpdate(r *reader) (*Record, error) {
	rec := &Record{Kind: KindUpdate}
	var err error
	if rec.Table, err = r.string16(); err != nil {
		return nil, err
	}
	if rec.Col, err = r.string16(); err != nil {
		return nil, err
	}
	if rec.Row, err = r.u64(); err != nil {
		return nil, err
	}
	tb, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch storage.Type(tb) {
	case storage.Int64:
		u, err := r.u64()
		if err != nil {
			return nil, err
		}
		rec.Value = storage.IntValue(int64(u))
	case storage.Float64:
		u, err := r.u64()
		if err != nil {
			return nil, err
		}
		f := math.Float64frombits(u)
		if math.IsNaN(f) {
			return nil, fmt.Errorf("wal: NaN in update record")
		}
		rec.Value = storage.FloatValue(f)
	case storage.String:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		b, err := r.take(int(n))
		if err != nil {
			return nil, err
		}
		rec.Value = storage.StringValue(string(b))
	default:
		return nil, fmt.Errorf("wal: unknown value type %d", tb)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after update record", len(r.b)-r.off)
	}
	return rec, nil
}

// NumRows returns how many rows the record adds on replay (0 for updates).
func (rec *Record) NumRows() int {
	switch {
	case rec.Kind == KindColumns && len(rec.Blocks) > 0:
		return rec.Blocks[0].Len()
	case rec.Kind == KindRows:
		return len(rec.Rows)
	}
	return 0
}
