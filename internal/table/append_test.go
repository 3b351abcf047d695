package table

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adskip/internal/dict"
	"adskip/internal/storage"
)

func mixedSchema() Schema {
	return Schema{
		{Name: "i", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
}

// naiveAppend fills a table one typed append per cell, row by row, the way
// it was filled before the batch kernel: the second load path the
// differential holds to the reference.
func naiveAppend(t *Table, rows [][]storage.Value) error {
	for _, r := range rows {
		for ci, v := range r {
			c := t.ColumnAt(ci)
			var err error
			switch {
			case v.IsNull():
				c.AppendNull()
			case c.Type() == storage.Int64:
				err = c.AppendInt(v.Int())
			case c.Type() == storage.Float64:
				err = c.AppendFloat(v.Float())
			default:
				err = c.AppendString(v.Str())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkThenStore is the append path as it was before a batch was staged, kept
// as the tests' reference: one pass over every column that only checks
// (arity, type, NaN, sealed dictionary), and only when all of it passed a
// second one that stores, cell by cell.
func checkThenStore(t *Table, rows [][]storage.Value) error {
	for i, r := range rows {
		if len(r) != t.NumColumns() {
			return fmt.Errorf("%w: row %d", ErrRowArity, i)
		}
	}
	for ci := 0; ci < t.NumColumns(); ci++ {
		c := t.ColumnAt(ci)
		for i, r := range rows {
			switch v := r[ci]; {
			case v.IsNull():
			case v.Type() != c.Type():
				return fmt.Errorf("row %d: %w", i, storage.ErrTypeMismatch)
			case c.Type() == storage.Float64 && math.IsNaN(v.Float()):
				return fmt.Errorf("row %d: %w", i, storage.ErrNaN)
			case c.Type() == storage.String && c.Dict().Sealed():
				if _, ok := c.Dict().Code(v.Str()); !ok {
					return fmt.Errorf("row %d: %w", i, dict.ErrSealed)
				}
			}
		}
	}
	return naiveAppend(t, rows)
}

// rejection is the sentinel a rejected batch's error wraps.
func rejection(err error) error {
	for _, kind := range []error{ErrRowArity, storage.ErrTypeMismatch, storage.ErrNaN, dict.ErrSealed} {
		if errors.Is(err, kind) {
			return kind
		}
	}
	return err
}

// marks is what an append changes in a column besides its codes, read
// without consolidating anything: a batch that was refused must leave all
// of it as the reference table, which never saw the batch, has it.
type marks struct {
	rows, staged, nNull int
	nullWords           []uint64
	strings             []string
}

func marksOf(c *storage.Column) marks {
	m := marks{rows: c.Len(), staged: c.Staged(), nNull: c.NullCount()}
	if nulls := c.Nulls(); nulls != nil {
		m.nullWords = slices.Clone(nulls.Words())
	}
	if d := c.Dict(); d != nil {
		m.strings = slices.Clone(d.Values())
	}
	return m
}

// requireSameMarks holds every column of got to the reference table's rows,
// NULL count, null-bitmap words and dictionary.
func requireSameMarks(t *testing.T, got, ref *Table) {
	t.Helper()
	for ci := 0; ci < ref.NumColumns(); ci++ {
		g, r := marksOf(got.ColumnAt(ci)), marksOf(ref.ColumnAt(ci))
		if g.rows != r.rows || g.nNull != r.nNull || !slices.Equal(g.nullWords, r.nullWords) || !slices.Equal(g.strings, r.strings) {
			t.Fatalf("column %q: %d rows, %d NULLs (bitmap %x), dictionary %q; reference %d rows, %d NULLs (bitmap %x), dictionary %q",
				ref.ColumnAt(ci).Name(), g.rows, g.nNull, g.nullWords, g.strings, r.rows, r.nNull, r.nullWords, r.strings)
		}
	}
}

// layout is a column's physical state: where its rows are and how much
// room it holds. Reading it consolidates, so it is compared between two
// tables built by the same calls, one of which also saw a refused batch.
type layout struct{ staged, rows, width, capacity int }

func layoutOf(c *storage.Column) layout {
	l := layout{staged: c.Staged()}
	v := c.Vec()
	l.rows, l.width, l.capacity = v.Len(), v.Width(), cap(v.N)+cap(v.W)
	return l
}

// leaveMarks rewrites the head of a batch of mixedSchema so that a column
// that applied any of it would show: strings no dictionary holds yet (and a
// repeat of one, unless the dictionary is sealed), a NULL in every column,
// and an integer that does not fit a 4-byte code — as many of these as the
// batch has rows before row end.
func leaveMarks(batch [][]storage.Value, end int, sealed bool) {
	head := [][]storage.Value{
		{storage.IntValue(1), storage.FloatValue(1), storage.StringValue("never-seen-a")},
		{storage.NullValue(storage.Int64), storage.NullValue(storage.Float64), storage.NullValue(storage.String)},
		{storage.IntValue(1 << 32), storage.FloatValue(2), storage.StringValue("never-seen-b")},
		{storage.IntValue(2), storage.FloatValue(3), storage.StringValue("never-seen-a")},
	}
	for k, row := range head[:min(len(head), end)] {
		if sealed {
			row[2] = batch[k][2]
		}
		batch[k] = row
	}
}

// wideRef is the reference every load path is held to: the column store as
// it was before code widths — each column one []int64 grown by append, one
// cell at a time, NULL slots holding 0 — plus what the data says the
// physical layout must be: wide[ci] is set once a code outside [0, 2^32)
// has been stored in column ci (a Float64 column is wide from the start).
type wideRef struct {
	schema Schema
	codes  [][]int64
	nulls  [][]bool
	dicts  []*dict.Dict // nil but for String columns
	wide   []bool
}

func newWideRef(schema Schema) *wideRef {
	r := &wideRef{schema: schema, codes: make([][]int64, len(schema)), nulls: make([][]bool, len(schema)),
		dicts: make([]*dict.Dict, len(schema)), wide: make([]bool, len(schema))}
	for ci, c := range schema {
		r.wide[ci] = c.Type == storage.Float64
		if c.Type == storage.String {
			r.dicts[ci] = dict.New()
		}
	}
	return r
}

func (r *wideRef) rows() int { return len(r.codes[0]) }

// encode returns the code v is stored as in column ci.
func (r *wideRef) encode(ci int, v storage.Value) int64 {
	switch r.schema[ci].Type {
	case storage.Int64:
		return v.Int()
	case storage.Float64:
		return storage.EncodeFloat64(v.Float())
	}
	code, err := r.dicts[ci].Insert(v.Str())
	if err != nil {
		panic(err)
	}
	return code
}

func (r *wideRef) store(ci int, code int64) int64 {
	r.wide[ci] = r.wide[ci] || code < 0 || code > math.MaxUint32
	return code
}

func (r *wideRef) append(rows [][]storage.Value) {
	for _, row := range rows {
		for ci, v := range row {
			code := int64(0)
			if !v.IsNull() {
				code = r.store(ci, r.encode(ci, v))
			}
			r.codes[ci] = append(r.codes[ci], code)
			r.nulls[ci] = append(r.nulls[ci], v.IsNull())
		}
	}
}

func (r *wideRef) set(ci, row int, v storage.Value) {
	r.codes[ci][row], r.nulls[ci][row] = r.store(ci, r.encode(ci, v)), false
}

func (r *wideRef) seal() {
	for ci, d := range r.dicts {
		if d == nil || d.Sealed() {
			continue
		}
		remap := d.Seal()
		for i, code := range r.codes[ci] {
			if !r.nulls[ci][i] {
				r.codes[ci][i] = remap[code]
			}
		}
	}
}

func (r *wideRef) value(ci, row int) storage.Value {
	typ, code := r.schema[ci].Type, r.codes[ci][row]
	switch {
	case r.nulls[ci][row]:
		return storage.NullValue(typ)
	case typ == storage.Int64:
		return storage.IntValue(code)
	case typ == storage.Float64:
		return storage.FloatValue(storage.DecodeFloat64(code))
	}
	return storage.StringValue(r.dicts[ci].Value(code))
}

// holdsOutlier reports whether column ci holds, now, a code outside
// [0, 2^32): what decides the width of a column rebuilt from its values.
func (r *wideRef) holdsOutlier(ci int) bool {
	for i, code := range r.codes[ci] {
		if !r.nulls[ci][i] && (code < 0 || code > math.MaxUint32) {
			return true
		}
	}
	return false
}

// outliers are the Int64 values that do not fit a 4-byte code.
var outliers = []int64{-1, 1 << 32, math.MinInt64, math.MaxInt64}

// randomBatch draws n rows of mixedSchema: NULLs in every column, integers
// that fit 32 bits (an outlier arrives only where a test places one),
// signed zeros and infinities among the floats, strings both repeated and
// new.
func randomBatch(rng *rand.Rand, n int) [][]storage.Value {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
	rows := make([][]storage.Value, n)
	for k := range rows {
		row := []storage.Value{
			storage.IntValue(rng.Int63n(1 << 32)),
			storage.FloatValue(rng.NormFloat64() * 1e6),
			storage.StringValue(fmt.Sprintf("s%d", rng.Intn(40))),
		}
		if rng.Intn(4) == 0 {
			row[0] = storage.IntValue([]int64{0, math.MaxUint32}[rng.Intn(2)]) // the narrow range's two ends
		}
		if rng.Intn(4) == 0 {
			row[1] = storage.FloatValue(floats[rng.Intn(len(floats))])
		}
		if rng.Intn(16) == 0 {
			row[2] = storage.StringValue(fmt.Sprintf("new-%d", rng.Int63()))
		}
		for ci := range row {
			if rng.Intn(10) == 0 {
				// A NULL's own type is not checked: one of another type passes.
				row[ci] = storage.NullValue(storage.Type(rng.Intn(3)))
			}
		}
		rows[k] = row
	}
	return rows
}

// ladderRung is the capacity a full vector of T one row short of n takes to
// hold n rows: one step of append's growth.
func ladderRung[T storage.Code](n int) int {
	if n == 0 {
		return 0
	}
	return cap(append(make([]T, n-1), 0))
}

// vecBytes returns the bytes a view's rows occupy and the bytes its backing
// array holds.
func vecBytes(v storage.Vec) (used, held int) {
	return v.Len() * v.Width(), (cap(v.N) + cap(v.W)) * v.Width()
}

// requireCapacity holds a column that has just been read to the capacity
// rule, in bytes at the column's code width: exactly its rows, or at most
// one ladder rung above them — however its rows were batched, and whenever
// they were read.
func requireCapacity(t *testing.T, c *storage.Column) {
	t.Helper()
	v := c.Vec()
	if c.Staged() != 0 {
		t.Fatalf("column %q: %d rows staged after Vec()", c.Name(), c.Staged())
	}
	n, rung := v.Len(), ladderRung[uint32](v.Len())
	if v.Width() == 8 {
		rung = ladderRung[int64](n)
	}
	if used, held := vecBytes(v); held > max(used, rung*v.Width()) {
		t.Fatalf("column %q: %d bytes held for %d rows of %d bytes, more than one ladder rung (%d rows)", c.Name(), held, n, v.Width(), rung)
	}
}

// requireSameTable compares a table with the reference cell by cell — NULL
// counts and bitmap, code vectors, values, dictionary contents, and the
// code width the data calls for — and holds it to the capacity rule. It
// reads every column: nothing is staged afterwards.
func requireSameTable(t *testing.T, got *Table, want *wideRef) {
	t.Helper()
	if got.NumRows() != want.rows() {
		t.Fatalf("rows: got %d, want %d", got.NumRows(), want.rows())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for ci := range want.schema {
		g, name := got.ColumnAt(ci), want.schema[ci].Name
		requireCapacity(t, g)
		gc, nNull := g.Vec(), 0
		if gc.Len() != want.rows() {
			t.Fatalf("column %q: %d codes, want %d", name, gc.Len(), want.rows())
		}
		if wide := gc.Width() == 8; wide != want.wide[ci] && gc.Len() > 0 {
			t.Fatalf("column %q: %d-byte codes, reference wide=%v", name, gc.Width(), want.wide[ci])
		}
		for i, wc := range want.codes[ci] {
			null := want.nulls[ci][i]
			if null {
				nNull++
			}
			if g.IsNull(i) != null || (!null && gc.At(i) != wc) || !g.Value(i).Equal(want.value(ci, i)) {
				t.Fatalf("column %q row %d: got %v (code %d, null %v), want %v (code %d)",
					name, i, g.Value(i), gc.At(i), g.IsNull(i), want.value(ci, i), wc)
			}
		}
		if g.NullCount() != nNull || g.HasNulls() != (nNull > 0) || (g.Nulls() == nil) != (nNull == 0) {
			t.Fatalf("column %q: NullCount %d, want %d", name, g.NullCount(), nNull)
		}
		if d := want.dicts[ci]; d != nil {
			gv, wv := g.Dict().Values(), d.Values()
			if len(gv) != len(wv) || g.Dict().Sealed() != d.Sealed() {
				t.Fatalf("column %q: dictionary has %d entries (sealed %v), want %d (sealed %v)", name, len(gv), g.Dict().Sealed(), len(wv), d.Sealed())
			}
			for k := range wv {
				if gv[k] != wv[k] {
					t.Fatalf("column %q: dictionary entry %d is %q, want %q", name, k, gv[k], wv[k])
				}
			}
		}
	}
}

// The reads a differential run interleaves between batches. Each is applied
// to the tables under test and to the reference; all but readNone and
// readNulls consolidate at least one column, the others must work on
// staged rows as they are.
const (
	readNone        = iota // leave the batch staged
	readCodes              // every column's code vector: the full comparison
	readValue              // Value of the newest row, one column only
	readSet                // SetInt and SetFloat on the newest row
	readSeal               // SealDicts, later batches draw strings from the dictionary
	readNulls              // Len, NullCount, IsNull of new rows: no consolidation
	readRows               // Rows across the boundary between old and new rows
	readReject             // a batch with an outlier and then a bad cell: refused whole, nothing staged or widened
	readOutlierHead        // a further batch whose first row does not fit a 4-byte code,
	readOutlierMid         // ... whose middle row does not,
	readOutlierTail        // ... whose last row does not
	readSetOutlier         // SetInt of such a value on the newest row
	readSnapshot           // WriteTo then Read: the same values at the width they call for
	numReads
)

// appendDifferential feeds the same random batches to AppendRows, to the
// row-at-a-time appenders and to the all-wide reference, applies
// reads[k%len(reads)] after batch k to all three, and requires both tables
// to match the reference at the end (and wherever a read compares).
func appendDifferential(t *testing.T, seed int64, sizes, reads []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, naive, want := MustNew("t", mixedSchema()), MustNew("t", mixedSchema()), newWideRef(mixedSchema())
	tables := []*Table{got, naive}
	sealed := false
	load := func(batch [][]storage.Value) {
		t.Helper()
		if sealed {
			useKnownStrings(rng, batch, want.dicts[2])
		}
		if err := got.AppendRows(batch); err != nil {
			t.Fatalf("AppendRows(%d rows): %v", len(batch), err)
		}
		if err := checkThenStore(naive, batch); err != nil {
			t.Fatalf("check, then row at a time: %v", err)
		}
		want.append(batch)
		if got.NumRows() != want.rows() {
			t.Fatalf("%d rows after a batch of %d, want %d", got.NumRows(), len(batch), want.rows())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for k, n := range sizes {
		before := want.rows()
		load(randomBatch(rng, n))
		last := want.rows() - 1
		switch read := reads[k%len(reads)]; {
		case read == readCodes:
			requireSameTable(t, got, want)
			requireSameTable(t, naive, want)
		case read == readSeal:
			got.SealDicts()
			naive.SealDicts()
			want.seal()
			sealed = true
		case read == readNulls:
			for ci := range want.schema {
				g := got.ColumnAt(ci)
				staged, nNull := g.Staged(), 0
				for i, null := range want.nulls[ci] {
					if null {
						nNull++
					}
					if i >= before && g.IsNull(i) != null {
						t.Fatalf("batch %d column %q row %d: IsNull %v", k, g.Name(), i, g.IsNull(i))
					}
				}
				if g.NullCount() != nNull || g.HasNulls() != (nNull > 0) {
					t.Fatalf("batch %d column %q: NullCount %d, want %d", k, g.Name(), g.NullCount(), nNull)
				}
				if g.Staged() != staged {
					t.Fatalf("batch %d column %q: reading NULLs consolidated the column", k, g.Name())
				}
			}
		case read == readReject:
			// Sized by the seed: a few rows, a chunk's worth, a batch the
			// columns stage in parallel; the bad cell at any row of it.
			bad := randomBatch(rng, []int{5, 1 + rng.Intn(2*1024), parallelCells/3 + rng.Intn(64)}[rng.Intn(3)])
			if sealed {
				useKnownStrings(rng, bad, want.dicts[2])
			}
			at := rng.Intn(len(bad))
			leaveMarks(bad, at, sealed)
			ci := rng.Intn(3)
			bad[at][ci] = []storage.Value{storage.FloatValue(1), storage.IntValue(1), storage.IntValue(1)}[ci]
			c := got.ColumnAt(0)
			staged := c.Staged()
			var before storage.Vec
			if staged == 0 {
				before = c.Vec() // nothing staged: looking does not change the column
			}
			err, refErr := got.AppendRows(bad), checkThenStore(naive, bad)
			if !errors.Is(err, storage.ErrTypeMismatch) || rejection(refErr) != storage.ErrTypeMismatch {
				t.Fatalf("batch %d: bad batch: %v, reference %v", k, err, refErr)
			}
			if got.NumRows() != want.rows() || c.Staged() != staged {
				t.Fatalf("batch %d: rejected batch left rows behind (%d rows, %d staged)", k, got.NumRows(), c.Staged())
			}
			requireSameMarks(t, got, naive)
			if after := c.Vec(); staged == 0 && (after.Width() != before.Width() || after.Len() != before.Len() ||
				cap(after.N) != cap(before.N) || cap(after.W) != cap(before.W)) {
				t.Fatalf("batch %d: rejected batch changed the vector: %d x %d bytes (capacity %d), was %d x %d (capacity %d)", k,
					after.Len(), after.Width(), cap(after.N)+cap(after.W), before.Len(), before.Width(), cap(before.N)+cap(before.W))
			}
		case read == readOutlierHead || read == readOutlierMid || read == readOutlierTail:
			batch := randomBatch(rng, 1+rng.Intn(9))
			at := map[int]int{readOutlierHead: 0, readOutlierMid: len(batch) / 2, readOutlierTail: len(batch) - 1}[read]
			batch[at][0] = storage.IntValue(outliers[rng.Intn(len(outliers))])
			load(batch)
		case read == readSnapshot:
			var buf bytes.Buffer
			if _, err := got.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatalf("batch %d: reading the snapshot back: %v", k, err)
			}
			// A rebuilt column is as wide as the values it holds now call
			// for, whatever was once stored and overwritten.
			rebuilt := *want
			rebuilt.wide = make([]bool, len(want.wide))
			for ci := range rebuilt.wide {
				rebuilt.wide[ci] = want.schema[ci].Type == storage.Float64 || want.holdsOutlier(ci)
			}
			requireSameTable(t, loaded, &rebuilt)
		case last < 0:
			// The remaining reads need a row.
		case read == readValue:
			ci := k % len(want.schema)
			if g, w := got.ColumnAt(ci).Value(last), want.value(ci, last); !g.Equal(w) {
				t.Fatalf("batch %d column %d row %d: Value %v, want %v", k, ci, last, g, w)
			}
		case read == readSet || read == readSetOutlier:
			i := int64(k) - 7
			if read == readSetOutlier {
				i = outliers[rng.Intn(len(outliers))]
			}
			for _, tb := range tables {
				if err := tb.ColumnAt(0).SetInt(last, i); err != nil {
					t.Fatal(err)
				}
				if err := tb.ColumnAt(1).SetFloat(last, float64(k)/3); err != nil {
					t.Fatal(err)
				}
			}
			want.set(0, last, storage.IntValue(i))
			want.set(1, last, storage.FloatValue(float64(k)/3))
		case read == readRows:
			lo, hi := max(0, before-3), min(want.rows(), before+3)
			g, err := got.Rows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for i := range g {
				for ci := range g[i] {
					if w := want.value(ci, lo+i); !g[i][ci].Equal(w) {
						t.Fatalf("batch %d: Rows(%d,%d) row %d column %d: %v, want %v", k, lo, hi, lo+i, ci, g[i][ci], w)
					}
				}
			}
		}
	}
	requireSameTable(t, got, want)
	requireSameTable(t, naive, want)
}

// useKnownStrings rewrites a batch's string cells to values the dictionary
// holds (NULL when it holds none): what a sealed column accepts.
func useKnownStrings(rng *rand.Rand, batch [][]storage.Value, d *dict.Dict) {
	known := d.Values()
	for _, r := range batch {
		switch {
		case r[2].IsNull():
		case len(known) == 0:
			r[2] = storage.NullValue(storage.String)
		default:
			r[2] = storage.StringValue(known[rng.Intn(len(known))])
		}
	}
}

func TestAppendRowsMatchesRowAtATime(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
	}{
		{"single rows", []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{"empty batch between", []int{3, 0, 5}},
		{"word boundaries", []int{63, 1, 1, 63, 64, 65, 127}},
		{"small then parallel", []int{256, parallelCells / 3, 100}},
		{"parallel first", []int{parallelCells, 1, parallelCells/3 + 7}},
		{"chunk floor", []int{1, 255, 1024, 1, 1023, 1, 1025, 255}},
		{"bulk", []int{1 << 16, 255, 1, 1024}},
	}
	// Read patterns: after every batch, never before the end, and every
	// kind of read in two rotations (so each meets staged and consolidated
	// columns, sealed and unsealed dictionaries).
	patterns := [][]int{
		{readCodes},
		{readNone},
		{readNulls, readValue, readNone, readSet, readRows, readReject, readSeal, readNone, readValue},
		{readSeal, readNone, readReject, readRows, readNone, readSet, readNulls},
	}
	// The ways a column goes wide, one per seed: an outlier into a staged
	// chunk, into the tail of a vector that reads have left slack on, and
	// through SetInt — each followed by more narrow rows, a snapshot and a
	// rejected batch.
	escalations := [][]int{
		{readNone, readOutlierMid, readNone, readSnapshot, readReject, readOutlierHead},
		{readCodes, readCodes, readOutlierTail, readCodes, readReject, readSnapshot, readCodes},
		{readCodes, readSetOutlier, readNone, readSet, readSnapshot, readCodes, readOutlierHead},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				for _, reads := range append(patterns, escalations[seed-1]) {
					appendDifferential(t, seed, tc.sizes, reads)
				}
			})
		}
	}
}

func FuzzAppendRows(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(300), uint32(0))
	f.Add(int64(2), uint16(64), uint16(65), uint32(0x111))
	f.Add(int64(3), uint16(5000), uint16(1), uint32(0x120))
	f.Add(int64(4), uint16(0), uint16(4096), uint32(0x345))
	f.Add(int64(5), uint16(1024), uint16(255), uint32(0x264))
	f.Add(int64(6), uint16(1500), uint16(1023), uint32(0x573))
	f.Add(int64(7), uint16(300), uint16(2000), uint32(0x19c)) // a snapshot, an outlier mid-batch, a read
	f.Add(int64(8), uint16(1), uint16(70), uint32(0x7ba))     // SetInt of an outlier, an outlier last, a rejected batch
	f.Fuzz(func(t *testing.T, seed int64, a, b uint16, reads uint32) {
		// One read per batch, a nibble each.
		script := []int{int(reads & 15 % numReads), int(reads >> 4 & 15 % numReads), int(reads >> 8 & 15 % numReads)}
		appendDifferential(t, seed, []int{int(a) % 8192, int(b) % 8192, 1}, script)
	})
}

// TestAppendRowsRejectsWholeBatch: one bad cell — in the first row, behind
// rows that would leave marks (new strings, NULLs in every column, an
// integer that widens a 4-byte column), in the last row; in a serial or a
// parallel batch; with the batch headed for the vector's spare tail, for the
// room a pending chunk has left, or for a chunk of its own — and the table
// is what a twin built by the same calls, minus that batch, is: rows, NULL
// bitmap words, dictionary, pending rows, code width and capacity. The next
// good batch then lands as it does in the twin and reads as the reference
// (checked, then stored cell by cell) reads.
func TestAppendRowsRejectsWholeBatch(t *testing.T) {
	bad := []struct {
		name   string
		sealed bool
		row    []storage.Value
		want   error
	}{
		{"arity", false, []storage.Value{storage.IntValue(1)}, ErrRowArity},
		{"type mismatch", false, []storage.Value{storage.IntValue(1), storage.FloatValue(1), storage.IntValue(1)}, storage.ErrTypeMismatch},
		{"type mismatch first column", false, []storage.Value{storage.StringValue("s1"), storage.FloatValue(1), storage.StringValue("s1")}, storage.ErrTypeMismatch},
		{"NaN", false, []storage.Value{storage.IntValue(1), storage.FloatValue(math.NaN()), storage.StringValue("s1")}, storage.ErrNaN},
		{"sealed dictionary", true, []storage.Value{storage.IntValue(1), storage.FloatValue(1), storage.StringValue("absent")}, dict.ErrSealed},
	}
	// The three kinds of room, as what is appended after the base rows have
	// been read once (which leaves every vector exactly full): one row and a
	// read grow the vector by a ladder rung, a quarter of it spare; ten rows
	// and no read open a chunkFloor chunk with room left; nothing leaves no
	// room anywhere.
	rooms := []struct {
		name string
		more int
		read bool
	}{{"tail", 1, true}, {"chunk remainder", 10, false}, {"new chunk", 0, false}}
	for _, tc := range bad {
		for _, n := range []int{1, 200, parallelCells} {
			t.Run(fmt.Sprintf("%s/rows=%d", tc.name, n), func(t *testing.T) {
				for _, room := range rooms {
					ats := []int{0, min(4, n-1), n - 1 - n/3, n - 1}
					if n == parallelCells {
						ats = ats[1:3] // the long batches: behind the marks, and deep in
					}
					for _, at := range slices.Compact(ats) {
						rejectWholeBatch(t, n, at, room.more, room.read, tc.sealed, tc.row, tc.want)
					}
				}
			})
		}
	}
}

// rejectWholeBatch is one case of TestAppendRowsRejectsWholeBatch: a batch
// of n rows whose row at is bad, refused by a table prepared as one kind of
// room (see there).
func rejectWholeBatch(t *testing.T, n, at, more int, read, sealed bool, badRow []storage.Value, wantErr error) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	got, twin, naive := MustNew("t", mixedSchema()), MustNew("t", mixedSchema()), MustNew("t", mixedSchema())
	want := newWideRef(mixedSchema())
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("rows=%d bad=%d more=%d read=%v: %s", n, at, more, read, fmt.Sprintf(format, args...))
	}
	load := func(batch [][]storage.Value) {
		t.Helper()
		if sealed && want.dicts[2].Sealed() {
			useKnownStrings(rng, batch, want.dicts[2])
		}
		for _, err := range []error{got.AppendRows(batch), twin.AppendRows(batch), checkThenStore(naive, batch)} {
			if err != nil {
				fail("good batch of %d: %v", len(batch), err)
			}
		}
		want.append(batch)
	}
	sameAsTwin := func(when string) {
		t.Helper()
		requireSameMarks(t, got, naive)
		for ci := 0; ci < got.NumColumns(); ci++ {
			if g, w := layoutOf(got.ColumnAt(ci)), layoutOf(twin.ColumnAt(ci)); g != w {
				fail("%s, column %q: %+v, the twin that never saw the bad batch %+v", when, got.ColumnAt(ci).Name(), g, w)
			}
		}
		requireSameTable(t, got, want)
	}

	base := 300
	if read {
		base = 5*n + 100 // a ladder rung above it has room for n
	}
	load(randomBatch(rng, base))
	if sealed {
		got.SealDicts()
		twin.SealDicts()
		naive.SealDicts()
		want.seal()
	}
	readAll := func() {
		for _, tb := range []*Table{got, twin, naive} {
			for ci := 0; ci < tb.NumColumns(); ci++ {
				tb.ColumnAt(ci).Vec()
			}
		}
	}
	readAll()
	if more > 0 {
		load(randomBatch(rng, more))
	}
	if read {
		readAll()
	}
	for ci := 0; ci < got.NumColumns(); ci++ {
		c := got.ColumnAt(ci)
		switch staged := c.Staged(); {
		case read: // the tail
			if v := c.Vec(); cap(v.N)+cap(v.W)-v.Len() < n {
				fail("column %q: tail has room for %d rows", c.Name(), cap(v.N)+cap(v.W)-v.Len())
			}
		case staged != more:
			fail("column %q: %d rows pending, want %d", c.Name(), staged, more)
		}
	}

	batch := randomBatch(rng, n)
	if sealed {
		useKnownStrings(rng, batch, want.dicts[2])
	}
	leaveMarks(batch, at, sealed)
	batch[at] = badRow
	if err := got.AppendRows(batch); !errors.Is(err, wantErr) {
		fail("AppendRows = %v, want %v", err, wantErr)
	}
	if err := checkThenStore(naive, batch); rejection(err) != wantErr {
		fail("reference = %v, want %v", err, wantErr)
	}
	for ci := 0; ci < got.NumColumns(); ci++ {
		if g, w := got.ColumnAt(ci).Staged(), twin.ColumnAt(ci).Staged(); g != w {
			fail("column %q: %d rows pending after the rejection, twin %d", got.ColumnAt(ci).Name(), g, w)
		}
	}
	sameAsTwin("after the rejection")

	load(randomBatch(rng, n))
	sameAsTwin("after the next batch")
	requireSameTable(t, naive, want)
}

// TestCapacityAfterReads: the same rows appended one at a time, 256 at a
// time and 64 Ki at a time, read after every batch, every so many or only
// at the end — with the Int64 column's values fitting 4-byte codes and not
// (the Float64 column is 8 bytes wide, the String column 4, either way).
// Whatever the batching and the reads, a column that has been read holds
// exactly its rows' bytes or at most one ladder rung more; a column loaded
// from empty and read once holds exactly rows x width bytes; and the null
// bitmap, which is never staged, grows as the row-at-a-time reference's does.
func TestCapacityAfterReads(t *testing.T) {
	const n = 300_000
	type load struct{ batch, readEvery int }
	var ref *Table // filled row at a time: the null bitmap's growth is held to its
	for _, w := range []struct {
		name  string
		from  int64
		width [3]int
		loads []load
	}{
		{"narrow", 0, [3]int{4, 8, 4}, []load{{1, 0}, {1, 9973}, {256, 0}, {256, 1}, {256, 37}, {1 << 16, 0}, {1 << 16, 1}, {1 << 16, 2}}},
		{"wide", 1 << 40, [3]int{8, 8, 4}, []load{{256, 1}, {256, 37}, {1 << 16, 0}, {1 << 16, 2}}},
	} {
		t.Run(w.name, func(t *testing.T) {
			rows := make([][]storage.Value, n)
			cells := make([]storage.Value, 3*n)
			for i := range rows {
				rows[i] = cells[3*i : 3*i+3 : 3*i+3]
				rows[i][0] = storage.IntValue(w.from + int64(i))
				rows[i][1] = storage.FloatValue(float64(i))
				rows[i][2] = storage.StringValue("x")
				if i%1000 == 999 {
					rows[i][0] = storage.NullValue(storage.Int64)
				}
			}
			if ref == nil { // the bitmap does not depend on the values' width
				ref = MustNew("t", mixedSchema())
				if err := naiveAppend(ref, rows); err != nil {
					t.Fatal(err)
				}
			}
			for _, tc := range w.loads {
				batch, readEvery := tc.batch, tc.readEvery
				tb := MustNew("t", mixedSchema())
				for k, lo := 0, 0; lo < n; k, lo = k+1, lo+batch {
					if err := tb.AppendRows(rows[lo:min(lo+batch, n)]); err != nil {
						t.Fatal(err)
					}
					if readEvery > 0 && k%readEvery == 0 {
						requireCapacity(t, tb.ColumnAt(k%3))
					}
				}
				for ci := 0; ci < tb.NumColumns(); ci++ {
					c := tb.ColumnAt(ci)
					requireCapacity(t, c)
					used, held := vecBytes(c.Vec())
					if used != n*w.width[ci] {
						t.Errorf("batch %d, column %q: %d bytes of codes, want %d rows x %d", batch, c.Name(), used, n, w.width[ci])
					}
					if readEvery == 0 && held != used {
						t.Errorf("batch %d, column %q: loaded from empty and read once, %d bytes held for %d", batch, c.Name(), held, used)
					}
				}
				if got, want := cap(tb.ColumnAt(0).Nulls().Words()), cap(ref.ColumnAt(0).Nulls().Words()); got != want {
					t.Errorf("batch %d: null bitmap capacity %d words, reference %d", batch, got, want)
				}
			}
		})
	}
}

func TestBatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomBatch(rng, BulkRows+BulkRows/2)
	got, want := MustNew("t", mixedSchema()), newWideRef(mixedSchema())
	b := NewBatcher(got)
	scratch := make([]storage.Value, 3)
	for k, r := range rows {
		copy(scratch, r) // Add must copy: the caller reuses its slice
		if err := b.Add(scratch...); err != nil {
			t.Fatal(err)
		}
		if k == BulkRows-1 && got.NumRows() != BulkRows {
			t.Fatalf("after %d rows the table holds %d: no flush at BulkRows", k+1, got.NumRows())
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil { // nothing buffered: a no-op
		t.Fatal(err)
	}
	want.append(rows)
	if got.ColumnAt(0).Staged() != len(rows) {
		t.Fatalf("a loader that never reads left %d of %d rows staged", got.ColumnAt(0).Staged(), len(rows))
	}
	requireSameTable(t, got, want)

	if err := b.Add(storage.IntValue(1)); !errors.Is(err, ErrRowArity) {
		t.Fatalf("short row: %v", err)
	}
	if err := b.Add(storage.IntValue(1), storage.IntValue(2), storage.StringValue("s")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("flush of a bad row: %v", err)
	}
	requireSameTable(t, got, want)
}

func TestRows(t *testing.T) {
	tb := MustNew("t", mixedSchema())
	batch := randomBatch(rand.New(rand.NewSource(9)), 100)
	if err := tb.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.Rows(10, 90)
	if err != nil || len(rows) != 80 {
		t.Fatalf("Rows(10,90): %d rows, %v", len(rows), err)
	}
	for k, r := range rows {
		want, _ := tb.Row(10 + k)
		for ci := range want {
			if !r[ci].Equal(want[ci]) {
				t.Fatalf("row %d column %d: %v, want %v", 10+k, ci, r[ci], want[ci])
			}
		}
	}
	for _, w := range [][2]int{{-1, 5}, {5, 101}, {9, 8}} {
		if _, err := tb.Rows(w[0], w[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Rows(%d,%d): %v", w[0], w[1], err)
		}
	}
}

// BenchmarkColumnWorkers is the measurement behind parallelCells: a 1 Mi-row
// load of the repository benchmark's 3-column schema from empty, stage and
// commit per batch, with the columns staged on one goroutine and on two.
func BenchmarkColumnWorkers(b *testing.B) {
	schema := Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
		{Name: "noise", Type: storage.Float64},
	}
	const tableRows = 1 << 20
	for _, n := range []int{256, 4096, 1 << 14, 1 << 16} {
		cells := make([]storage.Value, 3*n)
		rows := make([][]storage.Value, n)
		for i := range rows {
			rows[i] = cells[3*i : 3*i+3 : 3*i+3]
			rows[i][0] = storage.IntValue(int64(i) * 7919 % 1000003)
			rows[i][1] = storage.IntValue(int64(i))
			rows[i][2] = storage.FloatValue(float64(i) / 3)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tb := MustNew("data", schema)
					tb.staged = make([]storage.StagedRows, len(schema))
					for tb.NumRows() < tableRows {
						if err := tb.stageColumns(workers, batch{rows: rows}); err != nil {
							b.Fatal(err)
						}
						tb.Commit(Staged{cols: tb.staged})
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tableRows, "ns/row")
			})
		}
	}
}
