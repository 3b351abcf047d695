package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"adskip/internal/dict"
)

// A column block is one column's rows of one batch as they lie on disk: in
// a write-ahead log record and, one record per chunk of rows, in a table
// snapshot. It is encoded from the rows Stage produced (or from committed
// rows) and staged back into a column by StageBlock, which Commit then
// applies like any batch. Little-endian throughout:
//
//	u8   type
//	u8   code width: 4 or 8 bytes
//	u32  NULL rows k, then k x u32 row, ascending
//	n x  code, at the width
//	     String only: u32 entries m, then m x (u32 length, bytes)
//
// n, the row count, is the record's. Int64 codes are written at the width
// the column stores them, Float64 codes at 8 bytes; a NULL row's code is
// 0. A String block's codes are indexes into its own string table — the
// strings its rows reference, first seen first — and are written at 4
// bytes, so a block never depends on the codes a dictionary happens to
// hold: sealing a dictionary remaps them, and a log may be replayed before
// or after that.
type Block struct {
	typ   Type
	width int
	n     int
	nulls []byte // k x u32 row
	codes []byte // n x width
	strs  []byte // String: the table, m x (u32 length, bytes)
	nstr  int
	raw   []byte // the whole block
}

// blockHead is the fixed part of a block: type, width, NULL count.
const blockHead = 6

// MinBlockBytes is the least a block of n rows occupies, whatever its
// type: its head and a 4-byte code per row. Decoders check a claim of n
// rows against it before allocating for the claim.
func MinBlockBytes(n int) int { return blockHead + 4*n }

// ErrBadBlock is wrapped by every error ReadBlock returns.
var ErrBadBlock = errors.New("storage: malformed column block")

// Len returns the block's row count.
func (b *Block) Len() int { return b.n }

// Type returns the block's column type.
func (b *Block) Type() Type { return b.typ }

// Bytes returns the block as laid out on disk. It aliases the buffer the
// block was encoded into or read from.
func (b *Block) Bytes() []byte { return b.raw }

// CodeRange returns the least and the greatest code of the block's
// non-NULL rows, and how many rows are NULL (all of them: no range). The
// codes of an Int64 or Float64 block are its column's codes; a String
// block's are indexes into its string table.
func (b *Block) CodeRange() (lo, hi int64, nulls int) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i, rest := 0, b.nulls; i < b.n; i++ {
		if len(rest) > 0 && int(binary.LittleEndian.Uint32(rest)) == i {
			rest = rest[4:]
			continue
		}
		lo, hi = min(lo, b.code(i)), max(hi, b.code(i))
	}
	return lo, hi, len(b.nulls) / 4
}

// code returns the code of row i.
func (b *Block) code(i int) int64 {
	if b.width == 4 {
		return int64(binary.LittleEndian.Uint32(b.codes[4*i:]))
	}
	return int64(binary.LittleEndian.Uint64(b.codes[8*i:]))
}

// AppendBlock appends the block of the rows s holds staged for c — Stage
// has run, Commit has not — to dst, and returns the grown buffer and the
// block, which aliases it. The column must not have changed since the rows
// were staged; nothing about it or s changes.
func (c *Column) AppendBlock(dst []byte, s *StagedRows) ([]byte, Block) {
	slot := c.tail()
	head := slot.Slice(slot.Len(), slot.Len()+s.onTail)
	return c.appendBlock(dst, s.n, s.wide, [2]Vec{head, s.chunk}, s.nulls, s.strs)
}

// AppendRangeBlock appends the block of committed rows [lo, hi) to dst, as
// AppendBlock does. Like every read of codes it consolidates the column.
func (c *Column) AppendRangeBlock(dst []byte, lo, hi int) ([]byte, Block) {
	v := c.Vec().Slice(lo, hi)
	var nulls []int
	if c.nNull > 0 {
		for i := c.nulls.NextSet(lo); i >= 0 && i < hi; i = c.nulls.NextSet(i + 1) {
			nulls = append(nulls, i-lo)
		}
	}
	return c.appendBlock(dst, hi-lo, c.wide, [2]Vec{v}, nulls, nil)
}

// appendBlock is the one block encoder: n rows whose codes are the parts
// in order, wide when the column is once they are in it; nulls the batch
// rows that are NULL, ascending; strs the strings a staged batch adds to
// the dictionary (string k has code Len()+k).
func (c *Column) appendBlock(dst []byte, n int, wide bool, parts [2]Vec, nulls []int, strs []string) ([]byte, Block) {
	b := Block{typ: c.typ, width: 4, n: n}
	if wide && c.typ != String {
		b.width = 8
	}
	start := len(dst)
	dst = slices.Grow(dst, blockHead+4*len(nulls)+b.width*n)
	dst = append(dst, byte(c.typ), byte(b.width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(nulls)))
	for _, row := range nulls {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(row))
	}
	at := len(dst)
	dst = dst[:at+b.width*n]
	codes := dst[at:]
	if c.typ == String {
		table := c.indexStrings(codes, parts, nulls, strs)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(table)))
		for _, s := range table {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		b.nstr = len(table)
	} else {
		for _, p := range parts {
			codes = putCodes(codes, p, b.width)
		}
	}
	b.raw = dst[start:]
	b.nulls = dst[start+blockHead : at]
	b.codes = dst[at : at+b.width*n]
	if c.typ == String {
		b.strs = dst[at+b.width*n+4:]
	}
	return dst, b
}

// putCodes writes v's codes into dst at the width and returns what is left
// of dst.
func putCodes(dst []byte, v Vec, width int) []byte {
	switch {
	case width == 4:
		for i, code := range v.N {
			binary.LittleEndian.PutUint32(dst[4*i:], code)
		}
	case v.N != nil:
		for i, code := range v.N {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(code))
		}
	default:
		for i, code := range v.W {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(code))
		}
	}
	return dst[width*v.Len():]
}

// indexStrings writes, into codes, each row's index into a block-local
// string table and returns the table: the strings the rows reference,
// first seen first. A NULL row gets index 0.
func (c *Column) indexStrings(codes []byte, parts [2]Vec, nulls []int, strs []string) []string {
	var table []string
	local := make(map[int64]uint32)
	row := 0
	for _, p := range parts {
		for i := 0; i < p.Len(); i, row = i+1, row+1 {
			var idx uint32
			if len(nulls) > 0 && nulls[0] == row {
				nulls = nulls[1:]
			} else {
				code := p.At(i)
				k, ok := local[code]
				if !ok {
					k = uint32(len(table))
					local[code] = k
					if known := int64(c.dict.Len()); code < known {
						table = append(table, c.dict.Value(code))
					} else {
						table = append(table, strs[code-known])
					}
				}
				idx = k
			}
			binary.LittleEndian.PutUint32(codes[4*row:], idx)
		}
	}
	return table
}

// ReadBlock reads the block of n rows at the front of b, checks it — its
// type and width, NULL rows ascending and in range with code 0, no NaN,
// every string index inside the table, nothing cut short — and returns it
// (aliasing b) with the bytes after it. It allocates nothing.
func ReadBlock(b []byte, n int) (Block, []byte, error) {
	bad := func(format string, args ...any) (Block, []byte, error) {
		return Block{}, nil, fmt.Errorf("%w: "+format, append([]any{ErrBadBlock}, args...)...)
	}
	if len(b) < blockHead {
		return bad("%d bytes, the head needs %d", len(b), blockHead)
	}
	blk := Block{typ: Type(b[0]), width: int(b[1]), n: n}
	switch {
	case blk.typ > String:
		return bad("unknown type %d", b[0])
	case blk.width != 4 && blk.width != 8,
		blk.typ == Float64 && blk.width != 8,
		blk.typ == String && blk.width != 4:
		return bad("%s codes at width %d", blk.typ, blk.width)
	}
	k := int(binary.LittleEndian.Uint32(b[2:]))
	rest := b[blockHead:]
	if k > n || 4*k > len(rest) {
		return bad("%d NULL rows in %d", k, n)
	}
	blk.nulls, rest = rest[:4*k], rest[4*k:]
	if n*blk.width > len(rest) {
		return bad("codes cut short")
	}
	blk.codes, rest = rest[:n*blk.width], rest[n*blk.width:]
	if blk.typ == String {
		if len(rest) < 4 {
			return bad("string table cut short")
		}
		blk.nstr, rest = int(binary.LittleEndian.Uint32(rest)), rest[4:]
		if blk.nstr > n {
			return bad("%d strings for %d rows", blk.nstr, n)
		}
		at := len(b) - len(rest)
		for range blk.nstr {
			if len(rest) < 4 || int(binary.LittleEndian.Uint32(rest)) > len(rest)-4 {
				return bad("string table cut short")
			}
			rest = rest[4+int(binary.LittleEndian.Uint32(rest)):]
		}
		blk.strs = b[at : len(b)-len(rest)]
	}
	blk.raw = b[:len(b)-len(rest)]
	nulls, prev := blk.nulls, -1
	for i := 0; i < n; i++ {
		null := len(nulls) > 0 && int(binary.LittleEndian.Uint32(nulls)) == i
		code := blk.code(i)
		switch {
		case null && code != 0:
			return bad("NULL row %d holds code %d", i, code)
		case null:
			nulls, prev = nulls[4:], i
		case blk.typ == Float64 && (code < minFloatCode || code > maxFloatCode):
			return bad("row %d: %v", i, ErrNaN)
		case blk.typ == String && code >= int64(blk.nstr):
			return bad("row %d: string %d of %d", i, code, blk.nstr)
		}
	}
	if len(nulls) > 0 {
		return bad("NULL row %d after row %d, or past %d rows", binary.LittleEndian.Uint32(nulls), prev, n)
	}
	return blk, rest, nil
}

// The codes of -Inf and +Inf: every other code outside them is a NaN's.
var (
	minFloatCode = EncodeFloat64(math.Inf(-1))
	maxFloatCode = EncodeFloat64(math.Inf(1))
)

// StageBlock is Stage for rows that arrive as a block: it stages rows
// [from, b.Len()) of b, leaves them in s and reports why the column could
// not take them (another type; a string a sealed dictionary does not
// hold). The width rule is Stage's — a code a narrow slot cannot hold
// widens the column as an append would — and so is what Commit does with
// s. A string table entry becomes a code when a staged row first
// references it: the code the dictionary holds for it, or else the next
// provisional one, so a batch's new strings join the dictionary in the
// order its rows reference them, whatever codes the writer's dictionary
// had.
func (c *Column) StageBlock(s *StagedRows, b *Block, from int) error {
	if b.typ != c.typ {
		return fmt.Errorf("%w: %s block into %s column %q", ErrTypeMismatch, b.typ, c.typ, c.name)
	}
	c.begin(s, b.n-from)
	for nulls := b.nulls; len(nulls) > 0; nulls = nulls[4:] {
		if row := int(binary.LittleEndian.Uint32(nulls)); row >= from {
			s.nulls = append(s.nulls, row-from)
		}
	}
	var local []int64 // String: each table entry's code, -1 until a row references it
	var ents [][]byte
	if c.typ == String {
		local, ents = make([]int64, b.nstr), make([][]byte, b.nstr)
		for k, rest := 0, b.strs; k < b.nstr; k++ {
			l := int(binary.LittleEndian.Uint32(rest))
			ents[k], rest = rest[4:4+l], rest[4+l:]
			local[k] = -1
		}
	}
	return c.stage(s, func(dst Vec, at, first, n int) (int, error) {
		if dst.W != nil {
			return stageBlockCodes(c, s, dst.W[at:at+n], b, from, first, local, ents)
		}
		return stageBlockCodes(c, s, dst.N[at:at+n], b, from, first, local, ents)
	})
}

// stageBlockCodes is stageCodes for a block: batch rows first.. of s —
// block rows from+first.. — into dst, all of them or those before the
// first code dst cannot hold.
func stageBlockCodes[T Code](c *Column, s *StagedRows, dst []T, b *Block, from, first int, local []int64, ents [][]byte) (int, error) {
	row := from + first
	if c.typ != String {
		if b.width == 4 {
			src := b.codes[4*row : 4*(row+len(dst))]
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint32(src[4*i:]))
			}
			return len(dst), nil
		}
		src := b.codes[8*row : 8*(row+len(dst))]
		for i := range dst {
			code := int64(binary.LittleEndian.Uint64(src[8*i:]))
			if !fits[T](code) {
				return i, nil
			}
			dst[i] = T(code)
		}
		return len(dst), nil
	}
	nulls := s.nulls[sort.SearchInts(s.nulls, first):]
	for i := range dst {
		if len(nulls) > 0 && nulls[0] == first+i {
			nulls = nulls[1:]
			dst[i] = 0
			continue
		}
		k := binary.LittleEndian.Uint32(b.codes[4*(row+i):])
		code := local[k]
		if code < 0 {
			var ok bool
			if code, ok = c.dict.Code(string(ents[k])); !ok {
				if c.dict.Sealed() {
					return i, fmt.Errorf("row %d: string %q: %w", first+i, ents[k], dict.ErrSealed)
				}
				code = s.provisional(string(ents[k]), c.dict.Len())
			}
			local[k] = code
		}
		if !fits[T](code) {
			return i, nil
		}
		dst[i] = T(code)
	}
	return len(dst), nil
}
