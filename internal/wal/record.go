// Package wal implements a write-ahead log for the engine's append path:
// batches are logged as length-prefixed CRC32C-checksummed records before
// they touch the in-memory columns, so a process killed at any instant can
// replay its way back to exactly the acknowledged state.
//
// An append is logged as the column blocks its stage already encoded (one
// storage.Block per column, codes at the column's width, NULL rows as a
// list) so recovery replays blocks, not rows, and a table snapshot is a
// stream of the same records. Concurrent writers coalesce into one fsync
// via group commit; see Log. Segments rotate at a size threshold, and
// sealed segments are deleted once Compact declares them obsolete.
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

// KindColumns is an append batch as one column block per column (see
// storage.Block). It always carries the shard number, 0 when unsharded.
// It is the one kind this release writes and reads.
const KindColumns Kind = 5

// Kinds 1 to 4 are retired: older releases logged an append batch as
// row-major values (kind 1, or 3 with a shard number) and an in-place
// cell update (kind 2, or 4 with a shard number). DecodePayload refuses
// each with ErrRetiredKind.
const (
	kindRows        Kind = 1
	kindUpdate      Kind = 2
	kindShardRows   Kind = 3
	kindShardUpdate Kind = 4
)

// ErrRetiredKind is the error for a record of a retired kind. Recovery
// refuses a log holding one: its frame's checksum held, so it is a whole
// record of an older release, not a torn tail.
var ErrRetiredKind = errors.New("wal: retired record kind")

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindColumns:
		return "columns"
	case kindRows:
		return "row-major append"
	case kindUpdate:
		return "update"
	case kindShardRows:
		return "sharded row-major append"
	case kindShardUpdate:
		return "sharded update"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logical WAL entry: an append batch as column blocks.
// BaseRow (the table's row count when the batch was logged) makes replay
// idempotent: a record whose rows are already present is skipped, and a
// record that would leave a gap is an error.
type Record struct {
	Kind  Kind
	Table string

	// Shard is the 1-based shard number of the engine that logged the
	// record, or 0 for an unsharded table. Recovery routes the record to
	// the same shard. BaseRow is shard-local on a sharded record.
	Shard uint32

	// BaseRow, and the batch as one block per column in schema order.
	BaseRow uint64
	Blocks  []storage.Block
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
	switch k := Kind(kind); k {
	case KindColumns:
		return decodeColumns(r)
	case kindRows, kindUpdate, kindShardRows, kindShardUpdate:
		return nil, fmt.Errorf("%w %d (%s): this release reads only column-block records", ErrRetiredKind, k, k)
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
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

// NumRows returns how many rows the record adds on replay.
func (rec *Record) NumRows() int {
	if len(rec.Blocks) > 0 {
		return rec.Blocks[0].Len()
	}
	return 0
}
