package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"adskip/internal/storage"
)

// This file is the writer of old-format fixtures, records of the kinds
// older releases logged and this one refuses to replay: the row-major
// append record (kind 1, or 3 with a shard number), values at 8 bytes a
// cell with a NULL bitmap per column, and the in-place update of one cell
// (kind 2, or 4 with a shard number).

// legacyRows is one old-format append record.
type legacyRows struct {
	Table   string
	Shard   uint32
	BaseRow uint64
	Types   []storage.Type
	Rows    [][]storage.Value
}

// writeLegacySegment writes segment 1 of a log in dir (base LSN 0) holding
// recs in the old row-major encoding.
func writeLegacySegment(dir string, recs ...legacyRows) error {
	b := append([]byte(nil), segMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 1) // segment index
	b = binary.LittleEndian.AppendUint64(b, 0) // base LSN
	for _, rec := range recs {
		payload, err := encodeLegacyRows(rec)
		if err != nil {
			return err
		}
		b = AppendFrame(b, payload)
	}
	return os.WriteFile(segPath(dir, 1), b, 0o644)
}

func encodeLegacyRows(rec legacyRows) ([]byte, error) {
	ncols, nrows := len(rec.Types), len(rec.Rows)
	if ncols == 0 || ncols > maxCols {
		return nil, fmt.Errorf("wal: rows record with %d columns", ncols)
	}
	if nrows == 0 || nrows > maxRecordRows {
		return nil, fmt.Errorf("wal: rows record with %d rows", nrows)
	}
	if len(rec.Table) > math.MaxUint16 {
		return nil, fmt.Errorf("wal: table name too long (%d bytes)", len(rec.Table))
	}
	b := make([]byte, 0, 32+nrows*ncols*9)
	if rec.Shard > 0 {
		b = append(b, byte(kindShardRows))
		b = binary.LittleEndian.AppendUint32(b, rec.Shard)
	} else {
		b = append(b, byte(kindRows))
	}
	b = appendString16(b, rec.Table)
	b = binary.LittleEndian.AppendUint64(b, rec.BaseRow)
	b = binary.LittleEndian.AppendUint16(b, uint16(ncols))
	b = binary.LittleEndian.AppendUint32(b, uint32(nrows))
	bitmapLen := (nrows + 7) / 8
	for ci, typ := range rec.Types {
		b = append(b, byte(typ))
		// Null bitmap: bit i set means row i's cell is NULL.
		off := len(b)
		for i := 0; i < bitmapLen; i++ {
			b = append(b, 0)
		}
		for ri, row := range rec.Rows {
			if len(row) != ncols {
				return nil, fmt.Errorf("wal: row %d has %d cells, record has %d columns", ri, len(row), ncols)
			}
			if row[ci].IsNull() {
				b[off+ri/8] |= 1 << (ri % 8)
			}
		}
		switch typ {
		case storage.Int64:
			for _, row := range rec.Rows {
				var u uint64
				if !row[ci].IsNull() {
					u = uint64(row[ci].Int())
				}
				b = binary.LittleEndian.AppendUint64(b, u)
			}
		case storage.Float64:
			for _, row := range rec.Rows {
				var u uint64
				if !row[ci].IsNull() {
					u = math.Float64bits(row[ci].Float())
				}
				b = binary.LittleEndian.AppendUint64(b, u)
			}
		case storage.String:
			for _, row := range rec.Rows {
				if row[ci].IsNull() {
					continue
				}
				s := row[ci].Str()
				b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
				b = append(b, s...)
			}
		default:
			return nil, fmt.Errorf("wal: cannot encode column type %d", typ)
		}
	}
	return b, nil
}

// encodeLegacyUpdate is the old in-place update of one Int64 cell:
//
//	u8 kind | [u32 shard, kind 4 only] | u16 table length, table |
//	u16 column length, column | u64 row | u8 value type | u64 value
func encodeLegacyUpdate(shard uint32, table, col string, row uint64, v int64) []byte {
	b := []byte{byte(kindUpdate)}
	if shard > 0 {
		b = binary.LittleEndian.AppendUint32([]byte{byte(kindShardUpdate)}, shard)
	}
	b = appendString16(b, table)
	b = appendString16(b, col)
	b = binary.LittleEndian.AppendUint64(b, row)
	b = append(b, byte(storage.Int64))
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}
