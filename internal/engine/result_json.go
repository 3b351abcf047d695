package engine

import (
	"strconv"

	"adskip/internal/storage"
)

// Wire encoding of a Result. The JSON shape below is a stable contract:
// the network protocol (internal/proto), the client library, and the
// telemetry endpoints all consume it, and internal/proto.Result mirrors
// it on the decode side, its "stats" decoding into the same cost record
// (obs.Cost) the engine fills. Change it only with a matching golden-test
// update.
//
//	{
//	  "count": 2,
//	  "columns": [{"name":"v","type":"BIGINT"}],   // projections only
//	  "rows": [[1],[null]],                         // projections only
//	  "aggs": [42, 1.5],                            // aggregate queries only
//	  "stats": {"rows_scanned":...,"rows_skipped":...,...}
//	}
//
// Cells use each value's natural JSON form (see storage.Value.AppendJSON):
// NULL is null, BIGINT an integer, DOUBLE a number, VARCHAR a string.
//
// There is one encoder, AppendJSON: it appends the shape above field by
// field with strconv (no reflection, no per-cell allocation), and
// MarshalJSON, the server and the telemetry endpoints all go through it.
// Its bytes are exactly what encoding/json would produce for the shape — a
// test keeps a reflective twin to hold it to that.

// AppendJSON appends the result's wire encoding to dst and returns the
// extended slice. The execution trace is deliberately excluded: it is a
// local observability artifact (phase timings, monotonic clocks), not part
// of the query's answer.
func (r *Result) AppendJSON(dst []byte) []byte {
	if dst == nil {
		// One allocation for the common shapes: ~12 bytes a cell covers
		// BIGINT and DOUBLE cells, longer strings grow the buffer.
		dst = make([]byte, 0, 256+32*len(r.Columns)+12*len(r.Rows)*len(r.Columns))
	}
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	if len(r.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, name := range r.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = storage.AppendJSONString(dst, name)
			dst = append(dst, `,"type":`...)
			dst = storage.AppendJSONString(dst, r.columnType(i))
			dst = append(dst, '}')
		}
		// Projections always carry a rows array, even when empty, so
		// clients can distinguish "no matches" from "not a projection".
		dst = append(dst, `],"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONCells(dst, row)
		}
		dst = append(dst, ']')
	}
	if len(r.Aggs) > 0 {
		dst = append(dst, `,"aggs":`...)
		dst = appendJSONCells(dst, r.Aggs)
	}
	dst = append(dst, `,"stats":{"rows_scanned":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.RowsScanned), 10)
	dst = append(dst, `,"rows_skipped":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.RowsSkipped), 10)
	dst = append(dst, `,"rows_covered":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.RowsCovered), 10)
	dst = append(dst, `,"zones_probed":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.ZonesProbed), 10)
	dst = append(dst, `,"skippers_used":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.SkippersUsed), 10)
	if r.Stats.ShardsScanned != 0 {
		dst = append(dst, `,"shards_scanned":`...)
		dst = strconv.AppendInt(dst, int64(r.Stats.ShardsScanned), 10)
	}
	if r.Stats.ShardsPruned != 0 {
		dst = append(dst, `,"shards_pruned":`...)
		dst = strconv.AppendInt(dst, int64(r.Stats.ShardsPruned), 10)
	}
	return append(dst, '}', '}')
}

// appendJSONCells appends one array of cells.
func appendJSONCells(dst []byte, cells []storage.Value) []byte {
	dst = append(dst, '[')
	for i, v := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = v.AppendJSON(dst)
	}
	return append(dst, ']')
}

// columnType is the SQL-ish type name of projected column i. When Types
// was not populated (hand-built Results) it falls back to the first row's
// cell type; an empty projection with no type information reports "".
func (r *Result) columnType(i int) string {
	switch {
	case i < len(r.Types):
		return r.Types[i].String()
	case len(r.Rows) > 0 && i < len(r.Rows[0]):
		return r.Rows[0][i].Type().String()
	}
	return ""
}

// MarshalJSON renders the result in the stable wire shape documented
// above.
func (r *Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}
