package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adskip/internal/faultinject"
	"adskip/internal/storage"
	"adskip/internal/wal"
)

// Binary table format: the write-ahead log's own records behind a header,
// each in the log's frame (u32le length, u32le CRC32C, payload).
//
//	magic "ADSKTBL2" (8 bytes)
//	frame: the header, little-endian:
//	  name: u32 len + bytes
//	  ncols: u32, then per column: name (u32 len + bytes), type: u8
//	  per String column, in schema order: sealed: u8, count: u32,
//	    count x (u32 len + bytes), the dictionary in code order
//	frames: one wal.KindColumns record per BulkRows rows, base rows 0,
//	  BulkRows, 2*BulkRows, ...: one storage.Block per column
//	frame: the row count, u64 (the closing frame)
//
// So a snapshot's columns are laid out exactly as the log lays out an
// append, codes at the width the column stores them, and loading one is
// replay into a fresh table through table.Replay, which crash recovery
// runs too. The header seeds each dictionary in code order before the
// records replay, so seal state and code assignment survive exactly.

var (
	magic = [8]byte{'A', 'D', 'S', 'K', 'T', 'B', 'L', '2'}
	// magicV1 is the format before column blocks, which wrote every code
	// as an int64; it is refused by name.
	magicV1 = [8]byte{'A', 'D', 'S', 'K', 'T', 'B', 'L', '1'}

	// ErrBadMagic indicates the stream is not a table snapshot.
	ErrBadMagic = errors.New("table: bad magic (not an adskip table snapshot)")
	// ErrChecksum indicates the snapshot is corrupt.
	ErrChecksum = errors.New("table: checksum mismatch (corrupt snapshot)")
)

// closingLen is the closing frame's payload: the row count. Every record
// is longer.
const closingLen = 8

// WriteTo serializes the table to w and returns the number of bytes
// written. Reading codes consolidates each column, so the snapshot of a
// table an engine serves is taken through Engine.ReadTable (under its
// mutex); a table nothing serves yet is its caller's alone.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var written int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	buf := wal.AppendFrame(append([]byte(nil), magic[:]...), t.header())
	var blocks []storage.Block
	var blockBuf []byte
	for lo, n := 0, t.NumRows(); lo < n; lo += BulkRows {
		blocks, blockBuf = blocks[:0], blockBuf[:0]
		for _, c := range t.columns {
			var b storage.Block
			blockBuf, b = c.AppendRangeBlock(blockBuf, lo, min(lo+BulkRows, n))
			blocks = append(blocks, b)
		}
		var err error
		buf, err = wal.AppendRecord(buf, &wal.Record{Kind: wal.KindColumns, Table: t.name, BaseRow: uint64(lo), Blocks: blocks})
		if err != nil {
			return written, fmt.Errorf("table %q: %w", t.name, err)
		}
		if err := write(buf); err != nil {
			return written, err
		}
		buf = buf[:0]
	}
	// The chaos hook flips a byte of the closing frame's checksum so loads
	// of the snapshot exercise the ErrChecksum failure-atomic path.
	buf = wal.AppendFrame(buf, binary.LittleEndian.AppendUint64(nil, uint64(t.NumRows())))
	faultinject.Corrupt(faultinject.CodecCorrupt, buf[len(buf)-closingLen-4:len(buf)-closingLen])
	return written, write(buf)
}

// header renders the snapshot header: name, schema, dictionaries.
func (t *Table) header() []byte {
	b := appendString(nil, t.name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.columns)))
	for _, c := range t.columns {
		b = appendString(b, c.Name())
		b = append(b, byte(c.Type()))
	}
	for _, c := range t.columns {
		if c.Type() != storage.String {
			continue
		}
		d := c.Dict()
		if d.Sealed() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(d.Len()))
		for _, s := range d.Values() {
			b = appendString(b, s)
		}
	}
	return b
}

// Read deserializes a table snapshot produced by WriteTo: it checks the
// header, seeds the dictionaries, then replays the records into the fresh
// table. Every frame's checksum is verified before its payload is parsed;
// a damaged or cut-short snapshot is an error that wraps ErrChecksum, and
// the whole input is read first (a snapshot is an in-memory-scale
// artifact), so nothing is allocated for a claim the bytes do not back.
func Read(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading snapshot: %w", err)
	}
	switch {
	case len(raw) >= len(magicV1) && [8]byte(raw[:8]) == magicV1:
		return nil, fmt.Errorf("%w: %q is the old snapshot format, which this release no longer reads (it reads %q)", ErrBadMagic, magicV1[:], magic[:])
	case len(raw) < len(magic) || [8]byte(raw[:8]) != magic:
		return nil, ErrBadMagic
	}
	rest := raw[len(magic):]
	next := func() ([]byte, error) {
		payload, after, err := wal.NextFrame(rest, len(rest))
		if err != nil {
			return nil, corrupt("frame at byte %d: %v", len(raw)-len(rest), err)
		}
		rest = after
		return payload, nil
	}
	hdr, err := next()
	if err != nil {
		return nil, err
	}
	t, err := readHeader(hdr)
	if err != nil {
		return nil, err
	}
	for {
		payload, err := next()
		if err != nil {
			return nil, err
		}
		if len(payload) == closingLen {
			if rows := binary.LittleEndian.Uint64(payload); rows != uint64(t.NumRows()) {
				return nil, corrupt("closing frame says %d rows, the records hold %d", rows, t.NumRows())
			}
			break
		}
		rec, err := wal.DecodePayload(payload)
		if err != nil {
			return nil, corrupt("record at row %d: %v", t.NumRows(), err)
		}
		if rec.Kind != wal.KindColumns || rec.Shard != 0 || rec.Table != t.name || rec.BaseRow != uint64(t.NumRows()) {
			return nil, corrupt("%s record of %q (shard %d) at base row %d, table %q has %d rows",
				rec.Kind, rec.Table, rec.Shard, rec.BaseRow, t.name, t.NumRows())
		}
		if err := t.Replay(rec); err != nil {
			return nil, corrupt("record at row %d: %v", rec.BaseRow, err)
		}
	}
	if len(rest) != 0 {
		return nil, corrupt("%d bytes after the closing frame", len(rest))
	}
	return t, nil
}

// corrupt is the error of a snapshot whose bytes do not make a table.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("table: snapshot: %s: %w", fmt.Sprintf(format, args...), ErrChecksum)
}

// readHeader builds the empty table a header describes, its dictionaries
// seeded in code order and sealed where they were.
func readHeader(b []byte) (*Table, error) {
	h := &cursor{b: b}
	name := h.string()
	ncols := h.u32()
	// A column takes at least 5 bytes of the header: check the claim
	// before allocating for it.
	if h.err == nil && uint64(ncols) > uint64(len(h.b))/5 {
		return nil, corrupt("header claims %d columns in %d bytes", ncols, len(h.b))
	}
	schema := make(Schema, ncols)
	for i := range schema {
		schema[i].Name = h.string()
		schema[i].Type = storage.Type(h.u8())
		if h.err == nil && schema[i].Type > storage.String {
			return nil, corrupt("column %q has unknown type %d", schema[i].Name, schema[i].Type)
		}
	}
	if h.err != nil {
		return nil, corrupt("header: %v", h.err)
	}
	t, err := New(name, schema)
	if err != nil {
		return nil, corrupt("header: %v", err)
	}
	for _, c := range t.columns {
		if c.Type() != storage.String {
			continue
		}
		sealed, count := h.u8(), h.u32()
		d, prev := c.Dict(), ""
		for i := uint32(0); i < count; i++ {
			s := h.string()
			if h.err != nil {
				break
			}
			if code, _ := d.Insert(s); code != int64(i) || (sealed == 1 && i > 0 && s <= prev) {
				return nil, corrupt("column %q: dictionary entry %d (%q) repeats or is out of order", c.Name(), i, s)
			}
			prev = s
		}
		if sealed == 1 {
			c.SealDict()
		}
	}
	if h.err != nil || len(h.b) != 0 {
		return nil, corrupt("header: %v, %d bytes left", h.err, len(h.b))
	}
	return t, nil
}

// cursor reads the header; the first read past its end sets err, and
// every later read returns zeros.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || n > len(c.b) {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

func (c *cursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) string() string {
	n := c.u32()
	if uint64(n) > uint64(len(c.b)) {
		c.err = io.ErrUnexpectedEOF
	}
	return string(c.take(int(n)))
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}
