package proto

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
)

// The hot frames are parsed by hand. A served COUNT spends more time in
// encoding/json's reflective decoder than in the engine, and both sides
// know exactly what the other writes: the client the envelope and result
// that writeResponse and engine.Result.AppendJSON emit, the server the
// request that writeRequest emits. The parsers below accept that language
// and nothing else — compact, escape-free ASCII strings, every key at most
// once, plain JSON numbers, no byte after the closing brace — and report
// false on anything they do not recognise, whereupon the caller hands the
// same bytes to encoding/json. So a frame either decodes to what
// encoding/json would have produced or is decoded by encoding/json:
// TestDecodeResponseMatchesReflective, TestDecodeRequestMatchesUnmarshal
// and their fuzzers hold the two paths to each other.

// Decoded is a response frame as a client reads it: Response with the
// result decoded in place. The outer Result shadows the embedded raw one
// (encoding/json gives a key to the shallowest field carrying its name), so
// the reflective path too reads envelope, result and cells in one pass.
type Decoded struct {
	Response
	Result *Result `json:"result"`
}

// DecodeResponse decodes one response frame. Cells come back as
// json.Number (lossless for BIGINT), string, or nil for NULL. The frames a
// server writes for a successful query, insert or ping, with or without a
// "timing" block, are parsed by hand out of one string copy of payload,
// cells being slices of it; error envelopes, "tables", escaped or
// non-ASCII strings and everything else take the UseNumber decoder.
func DecodeResponse(payload []byte) (Decoded, error) {
	if d, ok := decodeResponseFast(payload); ok {
		return d, nil
	}
	return decodeResponseReflective(payload)
}

func decodeResponseReflective(payload []byte) (Decoded, error) {
	var d Decoded
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	err := dec.Decode(&d)
	return d, err
}

// DecodeRequest decodes one request frame: by hand when it is what
// writeRequest emits without the insert fields, through json.Unmarshal
// otherwise.
func DecodeRequest(payload []byte) (Request, error) {
	if req, ok := decodeRequestFast(payload); ok {
		return req, nil
	}
	var req Request
	err := json.Unmarshal(payload, &req)
	return req, err
}

// Key sets of the objects the parsers know, in wire order. A key's index
// here is what cursor.object hands to its callback.
var (
	envelopeKeys = []string{"ok", "result", "inserted", "timing"}
	resultKeys   = []string{"count", "columns", "rows", "aggs", "stats"}
	columnKeys   = []string{"name", "type"}
	statsKeys    = []string{"rows_scanned", "rows_skipped", "rows_covered", "zones_probed", "skippers_used", "shards_scanned", "shards_pruned"}
	timingKeys   = []string{"trace_id", "queue_us", "parse_us", "plan_us", "shardprune_us", "prune_us", "scan_us", "serialize_us", "total_us", "rows_skipped"}
	requestKeys  = []string{"op", "sql", "trace", "timing"}
)

func decodeResponseFast(payload []byte) (Decoded, bool) {
	c := cursor{s: string(payload)}
	var d Decoded
	ok := c.object(envelopeKeys, func(k int) (ok bool) {
		var n uint64
		switch k {
		case 0: // a failure carries error text: not this parser's business
			d.OK = true
			return c.lit("true")
		case 1:
			d.Result = new(Result)
			return c.result(d.Result)
		case 2:
			n, ok = c.uint()
			d.Inserted = int(n)
		default:
			d.Timing = new(Timing)
			return c.timing(d.Timing)
		}
		return ok
	})
	return d, ok && d.OK && c.i == len(c.s)
}

func decodeRequestFast(payload []byte) (Request, bool) {
	c := cursor{s: string(payload)}
	var req Request
	ok := c.object(requestKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			req.Op, ok = c.str()
		case 1:
			req.SQL, ok = c.str()
		case 2:
			req.TraceID, ok = c.str()
		default:
			req.WantTiming = true
			return c.lit("true")
		}
		return ok
	})
	return req, ok && c.i == len(c.s)
}

// cursor is a position in a frame's text.
type cursor struct {
	s string
	i int
}

// lit consumes tok if the text continues with it.
func (c *cursor) lit(tok string) bool {
	if strings.HasPrefix(c.s[c.i:], tok) {
		c.i += len(tok)
		return true
	}
	return false
}

// str consumes a quoted string of ASCII bytes that needs no unescaping and
// returns it as a slice of the text.
func (c *cursor) str() (string, bool) {
	if !c.lit(`"`) {
		return "", false
	}
	for j := c.i; j < len(c.s); j++ {
		switch b := c.s[j]; {
		case b == '"':
			s := c.s[c.i:j]
			c.i = j + 1
			return s, true
		case b < 0x20 || b == '\\' || b >= 0x80:
			return "", false
		}
	}
	return "", false
}

// digits consumes a run of decimal digits and returns its length.
func (c *cursor) digits() int {
	start := c.i
	for c.i < len(c.s) && c.s[c.i]-'0' <= 9 {
		c.i++
	}
	return c.i - start
}

// uint consumes an unsigned integer as strconv would print it, small
// enough for an int. What follows it is the caller's to check: "1.5" stops
// before the point and fails there.
func (c *cursor) uint() (uint64, bool) {
	start := c.i
	d := c.digits()
	if d == 0 || d > 18 || (d > 1 && c.s[start] == '0') {
		return 0, false
	}
	var n uint64
	for _, b := range []byte(c.s[start:c.i]) {
		n = n*10 + uint64(b-'0')
	}
	return n, n <= math.MaxInt
}

// number consumes one JSON number and returns its text.
func (c *cursor) number() (string, bool) {
	start := c.i
	c.lit("-")
	if !c.lit("0") && c.digits() == 0 { // a leading zero stands alone
		return "", false
	}
	if c.lit(".") && c.digits() == 0 {
		return "", false
	}
	if c.lit("e") || c.lit("E") {
		if !c.lit("+") {
			c.lit("-")
		}
		if c.digits() == 0 {
			return "", false
		}
	}
	return c.s[start:c.i], true
}

// cell consumes one result cell: a number, an escape-free string or null.
func (c *cursor) cell() (any, bool) {
	if c.i < len(c.s) {
		switch c.s[c.i] {
		case '"':
			s, ok := c.str()
			return s, ok
		case 'n':
			return nil, c.lit("null")
		}
	}
	n, ok := c.number()
	return json.Number(n), ok
}

// array walks [e,e,...], calling elem at the start of each element.
func (c *cursor) array(elem func() bool) bool {
	if !c.lit("[") {
		return false
	}
	if c.lit("]") {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !c.lit(",") {
			return c.lit("]")
		}
	}
}

// object walks {"k":v,...}, calling field with the key's index in keys at
// the start of each value. An unknown key fails, and so does a repeated
// one: encoding/json would decode it a second time into the same field.
func (c *cursor) object(keys []string, field func(k int) bool) bool {
	if !c.lit("{") {
		return false
	}
	if c.lit("}") {
		return true
	}
	var seen uint
	for {
		name, ok := c.str()
		if !ok || !c.lit(":") {
			return false
		}
		k := slices.Index(keys, name)
		if k < 0 || seen&(1<<k) != 0 || !field(k) {
			return false
		}
		seen |= 1 << k
		if !c.lit(",") {
			return c.lit("}")
		}
	}
}

// cells consumes one array of cells onto flat. Every array of a result
// shares flat's storage: a hundred rows are one allocation, not a hundred.
func (c *cursor) cells(flat []any) ([]any, bool) {
	ok := c.array(func() bool {
		v, ok := c.cell()
		flat = append(flat, v)
		return ok
	})
	return flat, ok
}

// timing consumes a Timing block into t: its trace id and its durations,
// which a server never writes negative (a negative one fails here).
func (c *cursor) timing(t *Timing) bool {
	us := [...]*int64{&t.QueueUS, &t.ParseUS, &t.PlanUS, &t.ShardPruneUS, &t.PruneUS, &t.ScanUS, &t.SerializeUS, &t.TotalUS, &t.RowsSkipped}
	return c.object(timingKeys, func(k int) (ok bool) {
		if k == 0 {
			t.TraceID, ok = c.str()
			return ok
		}
		n, ok := c.uint()
		*us[k-1] = int64(n)
		return ok
	})
}

// result consumes a wire-encoded engine.Result into res.
func (c *cursor) result(res *Result) bool {
	var flat []any // cells of rows and aggs, carved up as they arrive
	st := &res.Stats
	stats := [...]*int{&st.RowsScanned, &st.RowsSkipped, &st.RowsCovered, &st.ZonesProbed, &st.SkippersUsed, &st.ShardsScanned, &st.ShardsPruned}
	return c.object(resultKeys, func(k int) (ok bool) {
		var n uint64
		switch k {
		case 0:
			n, ok = c.uint()
			res.Count = int(n)
		case 1:
			res.Columns = make([]Column, 0, 4)
			return c.array(func() bool {
				var col Column
				ok := c.object(columnKeys, func(k int) (ok bool) {
					if k == 0 {
						col.Name, ok = c.str()
					} else {
						col.Type, ok = c.str()
					}
					return ok
				})
				res.Columns = append(res.Columns, col)
				return ok
			})
		case 2:
			// Count and columns precede rows on the wire and size them; a
			// frame cannot hold more cells than half its remaining bytes.
			room := (len(c.s) - c.i) / 2
			rows := min(res.Count, room)
			flat = make([]any, 0, min(rows*len(res.Columns)+1, room))
			res.Rows = make([][]any, 0, rows)
			return c.array(func() bool {
				start := len(flat)
				flat, ok = c.cells(flat)
				res.Rows = append(res.Rows, flat[start:len(flat):len(flat)])
				return ok
			})
		case 3:
			if flat == nil {
				flat = make([]any, 0, 4)
			}
			start := len(flat)
			flat, ok = c.cells(flat)
			res.Aggs = flat[start:len(flat):len(flat)]
		default:
			return c.object(statsKeys, func(k int) bool {
				n, ok := c.uint()
				*stats[k] = int(n)
				return ok
			})
		}
		return ok
	})
}
