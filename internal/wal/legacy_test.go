package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"adskip/internal/storage"
)

// This file is the writer of old-format fixtures: the KindRows /
// KindShardRows encoder, row-major values at 8 bytes a cell with a NULL
// bitmap per column, which the log no longer writes but still replays.

// WriteLegacySegment writes segment 1 of a log in dir (base LSN 0) holding
// recs, KindRows records, in the old row-major encoding.
func WriteLegacySegment(dir string, recs ...*Record) error {
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

func encodeLegacyRows(rec *Record) ([]byte, error) {
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
		b = append(b, byte(KindShardRows))
		b = binary.LittleEndian.AppendUint32(b, rec.Shard)
	} else {
		b = append(b, byte(KindRows))
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
