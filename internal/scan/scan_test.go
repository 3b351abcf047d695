package scan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

func seq(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

// naiveMatch is the reference predicate: a two-sided compare per interval,
// independent of the interval set being normalized.
func naiveMatch(c int64, r expr.Ranges) bool {
	for i := range r.Lo {
		if r.Lo[i] <= c && c <= r.Hi[i] {
			return true
		}
	}
	return false
}

// naiveNull is the bitmap contract: nil means no NULLs, and rows past the
// bitmap's end are not NULL.
func naiveNull(nulls *bitvec.BitVec, row int) bool {
	return nulls != nil && row < nulls.Len() && nulls.Get(row)
}

func TestCountRangesDense(t *testing.T) {
	codes := seq(103, func(i int) int64 { return int64(i) }) // 0..102
	count := func(lo, hi int, rlo, rhi int64) int {
		return CountRanges(codes, lo, hi, oneRange(rlo, rhi), nil, 0)
	}
	if got := count(0, len(codes), 10, 20); got != 11 {
		t.Fatalf("CountRanges=%d want 11", got)
	}
	if got := count(15, 30, 10, 20); got != 6 { // 15..20
		t.Fatalf("sub-window CountRanges=%d want 6", got)
	}
	if count(0, len(codes), 50, 40) != 0 {
		t.Fatal("inverted range should match nothing")
	}
	if count(0, len(codes), math.MinInt64, math.MaxInt64) != 103 {
		t.Fatal("full range should match all")
	}
}

func TestCountRangesWithNulls(t *testing.T) {
	codes := seq(10, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(10)
	nulls.Set(3)
	nulls.Set(7)
	if got := CountRanges(codes, 0, 10, oneRange(0, 9), nulls, 0); got != 8 {
		t.Fatalf("with nulls CountRanges=%d want 8", got)
	}
	// Base offset: codes window is rows 100.. in the table.
	big := bitvec.New(110)
	big.Set(102)
	if got := CountRanges(codes, 0, 10, oneRange(0, 9), big, 100); got != 9 {
		t.Fatalf("base-offset nulls CountRanges=%d want 9", got)
	}
}

func TestCountRangesIntervalSets(t *testing.T) {
	codes := seq(100, func(i int) int64 { return int64(i) })
	r := expr.Ranges{Lo: []int64{5, 90}, Hi: []int64{9, 94}}
	if got := CountRanges(codes, 0, 100, r, nil, 0); got != 10 {
		t.Fatalf("CountRanges=%d want 10", got)
	}
	if got := CountRanges(codes, 0, 100, expr.Ranges{}, nil, 0); got != 0 {
		t.Fatalf("empty ranges=%d want 0", got)
	}
	// More intervals than the OR-of-words path takes.
	var many expr.Ranges
	for i := 0; i < maxOrIntervals+3; i++ {
		many.Lo = append(many.Lo, int64(4*i))
		many.Hi = append(many.Hi, int64(4*i+1))
	}
	if got, want := CountRanges(codes, 0, 100, many, nil, 0), 2*(maxOrIntervals+3); got != want {
		t.Fatalf("many intervals=%d want %d", got, want)
	}
}

func TestFilterSel(t *testing.T) {
	codes := []int64{5, 1, 9, 3, 7, 3}
	sel := bitvec.NewSelVec(0)
	if n := FilterSel(codes, 0, len(codes), oneRange(3, 5), nil, 0, sel); n != 3 {
		t.Fatalf("FilterSel n=%d want 3", n)
	}
	if want := []uint32{0, 3, 5}; !slices.Equal(sel.Rows(), want) {
		t.Fatalf("sel rows=%v want %v", sel.Rows(), want)
	}
	// Base offset shifts row ids; multi-interval path.
	sel.Reset()
	r := expr.Ranges{Lo: []int64{1, 9}, Hi: []int64{1, 9}}
	FilterSel(codes, 0, len(codes), r, nil, 100, sel)
	if want := []uint32{101, 102}; !slices.Equal(sel.Rows(), want) {
		t.Fatalf("base-offset sel=%v want %v", sel.Rows(), want)
	}
}

func TestMinMaxRange(t *testing.T) {
	codes := []int64{5, -2, 9, 0}
	min, max, nonNull := MinMaxRange(codes, 0, 4, nil, 0)
	if nonNull != 4 || min != -2 || max != 9 {
		t.Fatalf("MinMax=%d,%d,%d", min, max, nonNull)
	}
	min, max, nonNull = MinMaxRange(codes, 1, 2, nil, 0)
	if nonNull != 1 || min != -2 || max != -2 {
		t.Fatalf("single MinMax=%d,%d,%d", min, max, nonNull)
	}
	if _, _, nonNull := MinMaxRange(codes, 2, 2, nil, 0); nonNull != 0 {
		t.Fatal("empty window should have no non-null rows")
	}
	nulls := bitvec.New(4)
	nulls.Set(2) // mask the 9
	min, max, nonNull = MinMaxRange(codes, 0, 4, nulls, 0)
	if nonNull != 3 || min != -2 || max != 5 {
		t.Fatalf("null MinMax=%d,%d,%d", min, max, nonNull)
	}
	nulls.SetAll()
	if _, _, nonNull := MinMaxRange(codes, 0, 4, nulls, 0); nonNull != 0 {
		t.Fatal("all-null window should have no non-null rows")
	}
}

func TestSummarize(t *testing.T) {
	codes := seq(100, func(i int) int64 { return int64(i) })
	parts := Summarize(storage.Vec{W: codes}, 0, 100, nil, 25)
	if len(parts) != 4 {
		t.Fatalf("parts=%d want 4", len(parts))
	}
	for p, s := range parts {
		if s.Lo != p*25 || s.Hi != (p+1)*25 {
			t.Fatalf("part %d window [%d,%d)", p, s.Lo, s.Hi)
		}
		if s.Hull != (expr.Hull{Min: int64(p * 25), Max: int64(p*25 + 24)}) {
			t.Fatalf("part %d bounds %+v", p, s.Hull)
		}
		if s.NonNull != 25 {
			t.Fatalf("part %d nonnull=%d", p, s.NonNull)
		}
	}
}

func TestSummarizeEdges(t *testing.T) {
	codes := storage.Vec{W: seq(5, func(int) int64 { return 7 })}
	// A size that does not divide the rows leaves a shorter last part.
	if parts := Summarize(codes, 0, 5, nil, 2); len(parts) != 3 || parts[2].Lo != 4 || parts[2].Hi != 5 {
		t.Fatalf("size 2: %+v", parts)
	}
	// A size beyond the rows is one part; a size below 1 is 1.
	if parts := Summarize(codes, 0, 5, nil, 99); len(parts) != 1 || parts[0].Hi != 5 {
		t.Fatalf("size 99: %+v", parts)
	}
	if parts := Summarize(codes, 0, 5, nil, 0); len(parts) != 5 {
		t.Fatalf("size 0: %+v", parts)
	}
	// Empty window.
	if parts := Summarize(codes, 3, 3, nil, 2); parts != nil {
		t.Fatalf("empty window: %+v", parts)
	}
	// Parts start at lo and name rows of the column.
	if parts := Summarize(codes, 2, 5, nil, 2); len(parts) != 2 || parts[0].Lo != 2 || parts[0].Hi != 4 ||
		parts[0].Hull != (expr.Hull{Min: 7, Max: 7}) || parts[1].NonNull != 1 {
		t.Fatalf("window [2,5): %+v", parts)
	}
}

func TestSummarizeNulls(t *testing.T) {
	codes := seq(10, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(10)
	nulls.Set(0)
	nulls.Set(9)
	parts := Summarize(storage.Vec{W: codes}, 0, 10, nulls, 5)
	if parts[0].Hull.Min != 1 || parts[0].NonNull != 4 {
		t.Fatalf("part0 min=%d nonnull=%d", parts[0].Hull.Min, parts[0].NonNull)
	}
	if parts[1].Hull.Max != 8 || parts[1].NonNull != 4 {
		t.Fatalf("part1 max=%d nonnull=%d", parts[1].Hull.Max, parts[1].NonNull)
	}
}

// naivePart is the PartStat of rows [lo, hi) of codes, computed row by row.
func naivePart(codes []int64, lo, hi int, nulls *bitvec.BitVec) PartStat {
	s := PartStat{Lo: lo, Hi: hi, Hull: expr.EmptyHull}
	for i := lo; i < hi; i++ {
		if naiveNull(nulls, i) {
			continue
		}
		s.Hull, s.NonNull = s.Hull.Union(expr.Hull{Min: codes[i], Max: codes[i]}), s.NonNull+1
	}
	return s
}

// naiveParts is what Summarize reports for all of codes in parts of size
// rows when it cuts none.
func naiveParts(codes []int64, nulls *bitvec.BitVec, size int) []PartStat {
	var out []PartStat
	for lo := 0; lo < len(codes); lo += size {
		out = append(out, naivePart(codes, lo, min(lo+size, len(codes)), nulls))
	}
	return out
}

// summarizeBothWidths runs Summarize over all of codes at 8 and at 4 bytes
// a code, fails unless the two agree, and returns the parts.
func summarizeBothWidths(t *testing.T, codes []int64, nulls *bitvec.BitVec, size int) []PartStat {
	t.Helper()
	narrow := make([]uint32, len(codes))
	for i, c := range codes {
		narrow[i] = uint32(c)
	}
	parts := Summarize(storage.Vec{W: codes}, 0, len(codes), nulls, size)
	if nparts := Summarize(storage.Vec{N: narrow}, 0, len(codes), nulls, size); !slices.Equal(nparts, parts) {
		t.Fatalf("4-byte codes: %+v, 8-byte codes: %+v", nparts, parts)
	}
	return parts
}

// A part holding the meeting of two value bands is cut exactly where they
// meet, wherever that is inside the part, with exact hulls and counts
// either side; the other parts, and every part of data without such a
// jump — sorted, semi-sorted, uniform, constant, all NULL — come back as
// the fixed-size parts they were. Both at 8 and at 4 bytes a code, with no
// NULLs, scattered NULLs and a run of NULLs at the meeting.
func TestSummarizeCutsAtDiscontinuity(t *testing.T) {
	const part, parts = 200, 4 // more rows a part than bestCut's fan
	n := part * parts
	rng := rand.New(rand.NewSource(1))
	cuts := 0
	for _, nullsAt := range []string{"none", "scattered", "at the meeting"} {
		for x := part; x <= 2*part; x++ {
			codes := seq(n, func(i int) int64 {
				if i < x {
					return 1000 + rng.Int63n(10)
				}
				return 5000 + rng.Int63n(10)
			})
			var nulls *bitvec.BitVec
			switch nullsAt {
			case "scattered":
				nulls = bitvec.New(n)
				for i := 0; i < n/10; i++ {
					nulls.Set(rng.Intn(n))
				}
			case "at the meeting":
				nulls = bitvec.New(n)
				for i := x - 3; i < x+3; i++ {
					nulls.Set(i)
				}
			}
			stats := summarizeBothWidths(t, codes, nulls, part)
			want := naiveParts(codes, nulls, part)
			// Any cut in [cLo, cHi], the NULL rows around x, is as good as x.
			cLo, cHi := x, x
			for cLo > 0 && naiveNull(nulls, cLo-1) {
				cLo--
			}
			for cHi < n && naiveNull(nulls, cHi) {
				cHi++
			}
			if naivePart(codes, part, cLo, nulls).NonNull == 0 || naivePart(codes, cHi, 2*part, nulls).NonNull == 0 {
				// Part 1 holds the values of one band only.
				if !slices.Equal(stats, want) {
					t.Fatalf("%s NULLs, bands meet at %d: %+v, want %+v", nullsAt, x, stats, want)
				}
				continue
			}
			if checkPartShape(t, stats, 0, n, part) != 1 || len(stats) != parts+1 {
				t.Fatalf("%s NULLs, bands meet at %d: %+v", nullsAt, x, stats)
			}
			if c := stats[1].Hi; c < cLo || c > cHi {
				t.Fatalf("%s NULLs, bands meet at %d: cut at %d, want [%d, %d]", nullsAt, x, c, cLo, cHi)
			}
			cuts++
			want = []PartStat{want[0], naivePart(codes, part, stats[1].Hi, nulls), naivePart(codes, stats[1].Hi, 2*part, nulls), want[2], want[3]}
			if !slices.Equal(stats, want) {
				t.Fatalf("%s NULLs, bands meet at %d: %+v, want %+v", nullsAt, x, stats, want)
			}
		}
	}
	if cuts < 3*(part-1)-20 {
		t.Fatalf("%d cuts", cuts)
	}

	// Data with no jump inside a part: no part is cut.
	for name, f := range map[string]func(i int) int64{
		"sorted":      func(i int) int64 { return int64(3 * i) },
		"semi-sorted": func(i int) int64 { return int64(i) + rng.Int63n(17) - 8 },
		"uniform":     func(int) int64 { return rng.Int63n(1_000_000) },
		"constant":    func(int) int64 { return 7 },
		"all-NULL":    func(i int) int64 { return int64(i) },
	} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			codes := seq(n+8, f)[8:] // semi-sorted jitter keeps codes >= 0
			var nulls *bitvec.BitVec
			if name == "all-NULL" {
				nulls = bitvec.New(n)
				nulls.SetAll()
			}
			size := (n + p - 1) / p
			if stats, want := summarizeBothWidths(t, codes, nulls, size), naiveParts(codes, nulls, size); !slices.Equal(stats, want) {
				t.Fatalf("%s, %d parts: %+v, want %+v", name, p, stats, want)
			}
		}
	}
}

// checkPartShape fails unless parts are Summarize's parts of the rows
// [lo, hi) in parts of size rows: in row order, each fixed-size part
// either as it is or as the two sides of one cut strictly inside it. It
// returns how many were cut.
func checkPartShape(t *testing.T, parts []PartStat, lo, hi, size int) (cuts int) {
	t.Helper()
	i := 0
	for pLo := lo; pLo < hi; pLo += size {
		pHi := min(pLo+size, hi)
		switch {
		case i < len(parts) && parts[i].Lo == pLo && parts[i].Hi == pHi:
			i++
		case i+1 < len(parts) && parts[i].Lo == pLo && parts[i].Hi == parts[i+1].Lo &&
			parts[i].Hi > pLo && parts[i].Hi < pHi && parts[i+1].Hi == pHi:
			i += 2
			cuts++
		default:
			t.Fatalf("fixed-size part [%d,%d) of [%d,%d) is neither whole nor cut once in %+v", pLo, pHi, lo, hi, parts)
		}
	}
	if i != len(parts) {
		t.Fatalf("%d parts for the %d-row parts of [%d,%d): %+v", len(parts), size, lo, hi, parts)
	}
	return cuts
}

// kernelShape is everything about a differential case that is not a random
// draw; the property test walks a table of shapes and the fuzzer mutates
// them.
type kernelShape struct {
	seed      int64
	winLen    uint16 // rows in the scanned window
	lo        uint8  // rows of the column before the window
	base      uint8  // absolute row of the column's first code
	intervals uint8  // 0..5 disjoint intervals, or 6 for one inverted interval
	flavor    uint8  // code pool (low two bits), null bitmap (next two), flavorBanded
}

// flavorBanded makes a shape's column runs of one pool code, of random
// length and so starting at random rows, each row of a run flipping the
// code's low bit one time in four: the value jumps Summarize cuts at.
const flavorBanded = 64

// codePools are where codes and interval bounds are drawn from, so bounds
// land exactly on codes: small ints, the extremes of int64, the codes of
// negative, tiny and huge floats, and the range of a 4-byte code vector.
var codePools = [][]int64{
	nil, // uniform in [-100, 100]
	{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64},
	{
		storage.EncodeFloat64(math.Inf(-1)), storage.EncodeFloat64(-1e300), storage.EncodeFloat64(-3.5),
		storage.EncodeFloat64(-5e-324), storage.EncodeFloat64(0), storage.EncodeFloat64(5e-324),
		storage.EncodeFloat64(2.5), storage.EncodeFloat64(1e300), storage.EncodeFloat64(math.Inf(1)),
	},
	narrowPool,
}

// narrowPool's codes all fit a []uint32 vector, so a column drawn from it
// is scanned at both widths; boundsBeyond are the interval bounds such a
// column also meets: below zero and past 2^32.
var (
	narrowPool   = []int64{0, 1, 2, 100, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32 - 1, math.MaxUint32}
	boundsBeyond = []int64{math.MinInt64, -1 << 32, -2, -1, math.MaxUint32 + 1, math.MaxUint32 + 2, 1 << 40, math.MaxInt64}
)

// kernelAnswer is what the naive reference finds in a window of rows.
type kernelAnswer struct {
	rows, nullRows []uint32
	min, max       int64
	nonNull        int
}

// kernelCase is one differential case, with everything random about it
// already drawn, so it can be replayed on each view of the same column.
type kernelCase struct {
	lo, hi, base int
	r            expr.Ranges
	nulls        *bitvec.BitVec
	naive        func(lo, hi int) kernelAnswer // over column rows [lo, hi)
	size         int                           // rows a part of Summarize
	// subset is the selection the refine kernels are given; the rows of it
	// that match, and the rows of it that are NULL.
	subset, wantKept, wantKeptNull []uint32
}

// checkKernelShape builds the case s describes and compares every kernel
// with the naive reference: on the column's []int64 codes and, when they
// all fit, on the same codes as []uint32. It returns how many cuts
// Summarize made, over both views.
func checkKernelShape(t *testing.T, s kernelShape) (cuts int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("shape %+v", s)
		}
	}()
	rng := rand.New(rand.NewSource(s.seed))
	pool := codePools[int(s.flavor&3)%len(codePools)]
	narrow := int(s.flavor&3)%len(codePools) == 3
	draw := func() int64 {
		switch {
		case pool == nil:
			return rng.Int63n(201) - 100
		case rng.Intn(4) == 0:
			if narrow {
				return int64(rng.Uint32())
			}
			return int64(rng.Uint64())
		}
		return pool[rng.Intn(len(pool))]
	}
	drawBound := func() int64 {
		if narrow && rng.Intn(3) == 0 {
			return boundsBeyond[rng.Intn(len(boundsBeyond))]
		}
		return draw()
	}
	k := kernelCase{lo: int(s.lo), base: int(s.base)}
	lo, base := k.lo, k.base
	k.hi = lo + int(s.winLen)
	hi := k.hi
	n := hi + rng.Intn(3)
	codes := seq(n, func(int) int64 { return draw() })
	if s.flavor&flavorBanded != 0 {
		for i := 0; i < n; {
			v := draw()
			for run := 1 + rng.Intn(1+n/4); run > 0 && i < n; run, i = run-1, i+1 {
				codes[i] = v ^ int64(b2i(rng.Intn(4) == 0))
			}
		}
	}

	switch s.flavor >> 2 & 3 {
	case 1: // one row in eight, covering the column
		k.nulls = bitvec.New(base + n)
		for i := 0; i < k.nulls.Len()/8; i++ {
			k.nulls.Set(rng.Intn(k.nulls.Len()))
		}
	case 2: // most rows, and ending inside the window: later rows are not NULL
		k.nulls = bitvec.New(base + lo + int(s.winLen)/2)
		for i := 0; i < k.nulls.Len(); i++ {
			k.nulls.Set(rng.Intn(k.nulls.Len()))
		}
	case 3: // every row
		k.nulls = bitvec.New(base + n)
		k.nulls.SetAll()
	}
	nulls := k.nulls

	switch {
	case s.intervals%7 == 6: // one inverted (empty) interval
		rlo := max(drawBound(), math.MinInt64+1)
		k.r = oneRange(rlo, []int64{rlo - 1, math.MinInt64}[rng.Intn(2)])
	case rng.Intn(8) == 0:
		k.r = oneRange(math.MinInt64, math.MaxInt64)
	default:
		bounds := seq(2*int(s.intervals%7), func(int) int64 { return drawBound() })
		slices.Sort(bounds)
		for i := 0; i < len(bounds); i += 2 {
			k.r.Lo, k.r.Hi = append(k.r.Lo, bounds[i]), append(k.r.Hi, bounds[i+1])
		}
		k.r = k.r.Normalize()
	}
	r := k.r

	k.naive = func(lo, hi int) kernelAnswer {
		a := kernelAnswer{min: math.MaxInt64, max: math.MinInt64}
		for i := lo; i < hi; i++ {
			if naiveNull(nulls, base+i) {
				a.nullRows = append(a.nullRows, uint32(base+i))
				continue
			}
			a.min, a.max, a.nonNull = min(a.min, codes[i]), max(a.max, codes[i]), a.nonNull+1
			if naiveMatch(codes[i], r) {
				a.rows = append(a.rows, uint32(base+i))
			}
		}
		return a
	}
	parts := 1 + rng.Intn(8)
	k.size = max(1, (int(s.winLen)+parts-1)/parts)
	// A random subset of the window's rows, for the refine kernels.
	for i := lo; i < hi; i++ {
		if rng.Intn(3) == 0 {
			continue
		}
		k.subset = append(k.subset, uint32(i))
		switch {
		case naiveNull(nulls, i):
			k.wantKeptNull = append(k.wantKeptNull, uint32(i))
		case naiveMatch(codes[i], r):
			k.wantKept = append(k.wantKept, uint32(i))
		}
	}

	cuts = checkKernels(t, storage.Vec{W: codes}, &k)
	fits := make([]uint32, len(codes))
	for i, c := range codes {
		if c < 0 || c > math.MaxUint32 {
			return cuts
		}
		fits[i] = uint32(c)
	}
	return cuts + checkKernels(t, storage.Vec{N: fits}, &k)
}

// checkSummary compares Summarize over the case's window, in parts of
// k.size rows, with the naive reference. It returns how many cuts it made.
func checkSummary(t *testing.T, codes storage.Vec, k *kernelCase) (cuts int) {
	t.Helper()
	parts := Summarize(codes, k.lo, k.hi, k.nulls, k.size)
	cuts = checkPartShape(t, parts, k.lo, k.hi, k.size)
	for _, st := range parts {
		p := k.naive(st.Lo, st.Hi)
		if st.NonNull != p.nonNull || (p.nonNull > 0 && st.Hull != (expr.Hull{Min: p.min, Max: p.max})) {
			t.Fatalf("part %+v want bounds %d,%d nonnull %d", st, p.min, p.max, p.nonNull)
		}
		// The part's rows start and end anywhere relative to a vector block.
		if h, nonNull := MinMax(codes, st.Lo, st.Hi, k.nulls, 0); nonNull != p.nonNull || h != (expr.Hull{Min: p.min, Max: p.max}) {
			t.Fatalf("MinMax over part [%d,%d) = %+v,%d want %d,%d,%d", st.Lo, st.Hi, h, nonNull, p.min, p.max, p.nonNull)
		}
	}
	return cuts
}

// checkKernels runs every kernel on one view of the case's column, through
// the dispatchers the engine calls, and compares it with the naive
// reference. It returns how many cuts Summarize made.
func checkKernels(t *testing.T, codes storage.Vec, k *kernelCase) (cuts int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("%d-byte codes", codes.Width())
		}
	}()
	lo, hi, base, r, nulls := k.lo, k.hi, k.base, k.r, k.nulls
	want := k.naive(lo, hi)

	if got := Count(codes, lo, hi, r, nulls, base); got != len(want.rows) {
		t.Fatalf("Count=%d want %d (r=%v)", got, len(want.rows), r)
	}
	const sentinel = math.MaxUint32
	sel := bitvec.NewSelVec(0)
	sel.Append(sentinel)
	if got := Filter(codes, lo, hi, r, nulls, base, sel); got != len(want.rows) ||
		sel.Rows()[0] != sentinel || !slices.Equal(sel.Rows()[1:], want.rows) {
		t.Fatalf("Filter=%d rows %v want %v (r=%v)", got, sel.Rows(), want.rows, r)
	}
	if h, nonNull := MinMax(codes, lo, hi, nulls, base); nonNull != want.nonNull || h != (expr.Hull{Min: want.min, Max: want.max}) {
		t.Fatalf("MinMax=%+v,%d want %d,%d,%d", h, nonNull, want.min, want.max, want.nonNull)
	}
	if got := CountNulls(nulls, base+lo, base+hi); got != len(want.nullRows) {
		t.Fatalf("CountNulls=%d want %d", got, len(want.nullRows))
	}
	sel.Reset()
	if got := FilterNullSel(nulls, base+lo, base+hi, sel); got != len(want.nullRows) || !slices.Equal(sel.Rows(), want.nullRows) {
		t.Fatalf("FilterNullSel=%d rows %v want %v", got, sel.Rows(), want.nullRows)
	}

	if base != 0 {
		return 0 // Summarize and the refine kernels index the column by row id
	}
	cuts = checkSummary(t, codes, k)
	// Refine the subset, in place.
	load := func() {
		sel.Reset()
		sel.Extend(copy(sel.Reserve(len(k.subset)), k.subset))
	}
	load()
	if got := Refine(codes, r, nulls, sel); got != len(k.wantKept) || !slices.Equal(sel.Rows(), k.wantKept) {
		t.Fatalf("Refine=%d rows %v want %v (r=%v)", got, sel.Rows(), k.wantKept, r)
	}
	load()
	if got := RefineNullSel(nulls, sel); got != len(k.wantKeptNull) || !slices.Equal(sel.Rows(), k.wantKeptNull) {
		t.Fatalf("RefineNullSel=%d rows %v want %v", got, sel.Rows(), k.wantKeptNull)
	}
	return cuts
}

// kernelShapes is the table the property test walks and the fuzzer starts
// from: window lengths 0-9 and around one and two bitmap words, windows
// that start inside a word, every interval count, every code pool (one in
// four shapes draws codes that fit 4 bytes and is scanned at both widths)
// and every kind of null bitmap; then dense one-interval windows of three
// and more vector blocks, which is what the vector count bodies take; then
// banded columns, whose jumps Summarize cuts at, from every pool and
// with every kind of null bitmap. New shapes go at the end, so the fuzzer's
// seed#N names keep their numbers.
func kernelShapes() []kernelShape {
	var out []kernelShape
	seed := int64(0)
	for _, winLen := range []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 400, 2100} {
		for _, off := range [][2]uint8{{0, 0}, {5, 0}, {0, 37}, {61, 64}, {3, 100}} {
			for intervals := uint8(0); intervals <= 6; intervals++ {
				seed++
				out = append(out, kernelShape{seed, winLen, off[0], off[1], intervals, uint8(seed % 16)})
			}
		}
	}
	for _, winLen := range []uint16{96, 131, 1100} {
		for pool := uint8(0); pool < 4; pool++ { // no null bitmap
			seed++
			out = append(out, kernelShape{seed, winLen, uint8(seed % 9), 0, 1, pool})
		}
	}
	for _, winLen := range []uint16{40, 257, 1500} {
		for flavor := uint8(0); flavor < 16; flavor++ {
			seed++
			out = append(out, kernelShape{seed, winLen, uint8(seed % 7), uint8(seed % 3), 1 + flavor%3, flavor | flavorBanded})
		}
	}
	return out
}

// Property: every kernel agrees with the naive reference over the shape
// table, three seeds a shape, and the banded shapes reach the cut.
func TestQuickKernelsAgreeWithNaive(t *testing.T) {
	cuts := 0
	for _, s := range kernelShapes() {
		for k := int64(0); k < 3; k++ {
			s.seed += 1000 * k
			s.flavor += uint8(5 * k)
			cuts += checkKernelShape(t, s)
		}
	}
	if cuts < 150 {
		t.Fatalf("Summarize cut %d parts over the whole table", cuts)
	}
}

func FuzzKernelsAgreeWithNaive(f *testing.F) {
	for _, s := range kernelShapes() {
		f.Add(s.seed, s.winLen, s.lo, s.base, s.intervals, s.flavor)
	}
	f.Fuzz(func(t *testing.T, seed int64, winLen uint16, lo, base, intervals, flavor uint8) {
		checkKernelShape(t, kernelShape{seed, winLen % 4096, lo, base, intervals, flavor})
	})
}
