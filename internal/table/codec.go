package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"adskip/internal/faultinject"
	"adskip/internal/storage"
)

// Binary table format (little-endian):
//
//	magic "ADSKTBL1" (8 bytes)
//	name: u32 len + bytes
//	ncols: u32
//	per column:
//	  name: u32 len + bytes
//	  type: u8
//	  nrows: u64
//	  codes: nrows * i64
//	  nullCount: u64, then nullCount * u64 row indices
//	  dict (String only): sealed u8, u32 count, count * (u32 len + bytes)
//	crc32 (IEEE) of everything above: u32
//
// The format is a bulk snapshot: load produces a table whose string
// dictionaries preserve their seal state and code assignment exactly.

var (
	magic = [8]byte{'A', 'D', 'S', 'K', 'T', 'B', 'L', '1'}

	// ErrBadMagic indicates the stream is not a table snapshot.
	ErrBadMagic = errors.New("table: bad magic (not an adskip table snapshot)")
	// ErrChecksum indicates the snapshot is corrupt.
	ErrChecksum = errors.New("table: checksum mismatch (corrupt snapshot)")
)

const maxSaneLen = 1 << 31 // guards length-prefixed reads against corrupt headers

// WriteTo serializes the table to w. It returns the number of payload
// bytes written. Vec consolidates each column, so the snapshot of a table
// an engine serves is taken through Engine.ReadTable (under its mutex); a
// table nothing serves yet is its caller's alone.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriter(cw)

	if _, err := bw.Write(magic[:]); err != nil {
		return cw.n, err
	}
	writeString(bw, t.name)
	writeU32(bw, uint32(len(t.columns)))
	for _, c := range t.columns {
		writeString(bw, c.Name())
		bw.WriteByte(byte(c.Type()))
		codes := c.Vec()
		writeU64(bw, uint64(codes.Len()))
		var buf [8]byte
		for i := 0; i < codes.Len(); i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(codes.At(i)))
			bw.Write(buf[:])
		}
		// Nulls as a sparse index list.
		var nullRows []int
		if nulls := c.Nulls(); nulls != nil {
			nullRows = nulls.AppendSetTo(nil)
		}
		writeU64(bw, uint64(len(nullRows)))
		for _, r := range nullRows {
			writeU64(bw, uint64(r))
		}
		if c.Type() == storage.String {
			d := c.Dict()
			if d.Sealed() {
				bw.WriteByte(1)
			} else {
				bw.WriteByte(0)
			}
			vals := d.Values()
			writeU32(bw, uint32(len(vals)))
			for _, s := range vals {
				writeString(bw, s)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// Trailing checksum (not itself checksummed). The chaos hook flips a
	// checksum byte so loads of the snapshot exercise the ErrChecksum
	// failure-atomic path.
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	faultinject.Corrupt(faultinject.CodecCorrupt, sum[:])
	if _, err := w.Write(sum[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// Read deserializes a table snapshot produced by WriteTo, verifying the
// checksum before parsing (a snapshot is an in-memory-scale artifact, so
// buffering it whole is acceptable and makes corruption detection exact).
func Read(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading snapshot: %w", err)
	}
	if len(raw) < len(magic)+4 {
		return nil, ErrBadMagic
	}
	payload, sumBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if [8]byte(payload[:8]) != magic {
		return nil, ErrBadMagic
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, ErrChecksum
	}
	br := bufio.NewReader(bytes.NewReader(payload[8:]))
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	ncols, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ncols > 1<<20 {
		return nil, fmt.Errorf("table: implausible column count %d: %w", ncols, ErrChecksum)
	}
	t := &Table{name: name, index: make(map[string]int, ncols)}
	var prevRows uint64
	for ci := uint32(0); ci < ncols; ci++ {
		cname, err := readString(br)
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		typ := storage.Type(tb)
		if typ != storage.Int64 && typ != storage.Float64 && typ != storage.String {
			return nil, fmt.Errorf("table: column %q has unknown type %d: %w", cname, tb, ErrChecksum)
		}
		nrows, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if nrows > maxSaneLen {
			return nil, fmt.Errorf("table: implausible row count %d: %w", nrows, ErrChecksum)
		}
		if ci > 0 && nrows != prevRows {
			return nil, fmt.Errorf("%w in snapshot", ErrLengthSkew)
		}
		prevRows = nrows
		codes := make([]int64, nrows)
		buf := make([]byte, 8*1024)
		for read := uint64(0); read < nrows; {
			chunk := uint64(len(buf) / 8)
			if nrows-read < chunk {
				chunk = nrows - read
			}
			if _, err := io.ReadFull(br, buf[:chunk*8]); err != nil {
				return nil, fmt.Errorf("table: reading codes: %w", err)
			}
			for k := uint64(0); k < chunk; k++ {
				codes[read+k] = int64(binary.LittleEndian.Uint64(buf[k*8:]))
			}
			read += chunk
		}
		nNulls, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if nNulls > nrows {
			return nil, fmt.Errorf("table: null count %d exceeds rows %d: %w", nNulls, nrows, ErrChecksum)
		}
		nullRows := make([]uint64, nNulls)
		for k := range nullRows {
			v, err := readU64(br)
			if err != nil {
				return nil, err
			}
			if v >= nrows {
				return nil, fmt.Errorf("table: null row %d out of range: %w", v, ErrChecksum)
			}
			nullRows[k] = v
		}
		col, err := rebuildColumn(cname, typ, codes, nullRows, br)
		if err != nil {
			return nil, err
		}
		if _, dup := t.index[cname]; dup {
			return nil, fmt.Errorf("%w: %q in snapshot", ErrColumnExists, cname)
		}
		t.index[cname] = len(t.columns)
		t.columns = append(t.columns, col)
	}
	return t, nil
}

// rebuildColumn reconstructs a column from raw codes, null rows, and (for
// strings) the serialized dictionary.
func rebuildColumn(name string, typ storage.Type, codes []int64, nullRows []uint64, br *bufio.Reader) (*storage.Column, error) {
	col := storage.NewColumn(name, typ)
	switch typ {
	case storage.Int64, storage.Float64:
		nullSet := make(map[uint64]bool, len(nullRows))
		for _, r := range nullRows {
			nullSet[r] = true
		}
		for i, code := range codes {
			if nullSet[uint64(i)] {
				col.AppendNull()
				continue
			}
			if typ == storage.Int64 {
				if err := col.AppendInt(code); err != nil {
					return nil, err
				}
			} else {
				if err := col.AppendFloat(storage.DecodeFloat64(code)); err != nil {
					return nil, err
				}
			}
		}
	case storage.String:
		sealed, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		count, err := readU32(br)
		if err != nil {
			return nil, err
		}
		vals := make([]string, count)
		for i := range vals {
			vals[i], err = readString(br)
			if err != nil {
				return nil, err
			}
		}
		nullSet := make(map[uint64]bool, len(nullRows))
		for _, r := range nullRows {
			nullSet[r] = true
		}
		for i, code := range codes {
			if nullSet[uint64(i)] {
				col.AppendNull()
				continue
			}
			if code < 0 || code >= int64(len(vals)) {
				return nil, fmt.Errorf("table: string code %d out of dictionary range %d: %w", code, len(vals), ErrChecksum)
			}
			if err := col.AppendString(vals[code]); err != nil {
				return nil, err
			}
		}
		if sealed == 1 {
			col.SealDict()
		}
	}
	return col, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxSaneLen {
		return "", fmt.Errorf("table: implausible string length %d: %w", n, ErrChecksum)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
