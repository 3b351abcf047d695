package storage

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Append-style JSON encoding of cells. This is the one cell encoder of the
// wire format: Value.MarshalJSON and engine.Result.AppendJSON both end
// here, and its output is byte for byte what encoding/json produces for
// the same int64, float64 or string (HTML-safe escaping included), so a
// result can be appended cell by cell without reflection or a per-cell
// allocation and still match every golden.

// AppendJSON appends the value's natural JSON form to dst: NULL as null,
// Int64 as an integer, Float64 as a number (non-finite floats, which SQL
// cannot produce but defensive callers may, collapse to null), String as
// a JSON string.
func (v Value) AppendJSON(dst []byte) []byte {
	if v.null {
		return append(dst, "null"...)
	}
	switch v.typ {
	case Int64:
		return strconv.AppendInt(dst, v.i, 10)
	case Float64:
		return appendJSONFloat(dst, v.f)
	default:
		return AppendJSONString(dst, v.s)
	}
}

// appendJSONFloat follows encoding/json's float64 encoder (the ES6
// number-to-string conversion): %f inside [1e-6, 1e21), %e outside, and an
// exponent written without a leading zero.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string with encoding/json's default
// escaping: control characters, the quote and the backslash, the
// HTML-sensitive <, > and &, U+2028 and U+2029, and U+FFFD for each byte
// of invalid UTF-8.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
