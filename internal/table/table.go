// Package table provides the schema/table abstraction over columnar
// storage: named, typed columns of equal length, row-wise ingest for
// convenience, and a compact binary persistence format.
package table

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"adskip/internal/storage"
	"adskip/internal/wal"
)

// Errors returned by table operations.
var (
	ErrColumnExists = errors.New("table: column already exists")
	ErrNoSuchColumn = errors.New("table: no such column")
	ErrRowArity     = errors.New("table: row arity does not match schema")
	ErrLengthSkew   = errors.New("table: column lengths differ")
	ErrOutOfRange   = errors.New("table: row index out of range")
	ErrTooManyRows  = errors.New("table: row limit reached")
)

// MaxRows is the most rows a table holds: 2^32-1, so that every row id and
// every exclusive row bound (a zone's end, a table's length) fits the
// uint32 the selection vectors, the top-k heap and the zone entries keep
// it in. An append past it is refused whole.
const MaxRows = math.MaxUint32

// ColumnSpec describes one column of a schema.
type ColumnSpec struct {
	Name string
	Type storage.Type
}

// Schema is an ordered list of column specs.
type Schema []ColumnSpec

// Table is a named collection of equal-length columns.
type Table struct {
	name     string
	columns  []*storage.Column
	index    map[string]int
	staged   []storage.StagedRows // Stage's buffer, one entry per column; all zero outside a Stage-Commit pair
	blocks   []storage.Block      // Blocks' result, aliasing blockBuf
	blockBuf []byte
}

// New creates an empty table with the given schema. Column names must be
// unique and non-empty.
func New(name string, schema Schema) (*Table, error) {
	t := &Table{name: name, index: make(map[string]int, len(schema))}
	for _, cs := range schema {
		if cs.Name == "" {
			return nil, fmt.Errorf("table %q: empty column name", name)
		}
		if _, dup := t.index[cs.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrColumnExists, cs.Name)
		}
		t.index[cs.Name] = len(t.columns)
		t.columns = append(t.columns, storage.NewColumn(cs.Name, cs.Type))
	}
	return t, nil
}

// MustNew is New that panics on error, for tests and generators.
func MustNew(name string, schema Schema) *Table {
	t, err := New(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema in column order.
func (t *Table) Schema() Schema {
	s := make(Schema, len(t.columns))
	for i, c := range t.columns {
		s[i] = ColumnSpec{Name: c.Name(), Type: c.Type()}
	}
	return s
}

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.columns) }

// NumRows returns the number of rows (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.columns) == 0 {
		return 0
	}
	return t.columns[0].Len()
}

// Column returns the column with the given name.
func (t *Table) Column(name string) (*storage.Column, error) {
	i, ok := t.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, name, t.name)
	}
	return t.columns[i], nil
}

// ColumnAt returns the i-th column.
func (t *Table) ColumnAt(i int) *storage.Column { return t.columns[i] }

// BulkRows is the batch size the bulk loaders (CSV, shard merge, the
// generator commands) hand to AppendRows: large enough that columns are
// applied in parallel, small enough that a batch of dynamic values stays
// a few megabytes.
const BulkRows = 1 << 16

// parallelCells is the batch size, in cells, from which Stage spreads the
// columns over goroutines. Measured on the 2-core box with the benchmark's
// 3-column schema (EXPERIMENTS.md, "bulk load" and "bulk load, continued"):
// at 256 rows starting and joining the goroutines costs more than the
// second core saves; 64 Ki-row batches win a quarter. The break-even sits
// between 4 Ki and 16 Ki rows and no loader appends batches in that band,
// so the threshold stays until one does.
const parallelCells = 3 * 4096

// AppendRow appends one row: the one-row case of AppendRows.
func (t *Table) AppendRow(vals ...storage.Value) error {
	return t.AppendRows([][]storage.Value{vals})
}

// AppendRows appends a batch; every row must match the schema in order
// and arity, with NULLs expressed as storage.NullValue. The append is all
// or nothing: every column stages the batch — checks and encodes its cells
// into room its length does not count — before any commits, so on an error
// (arity, type mismatch, NaN, string missing from a sealed dictionary) the
// table is exactly as it was and column lengths never skew.
func (t *Table) AppendRows(rows [][]storage.Value) error {
	st, err := t.Stage(rows)
	if err != nil {
		return err
	}
	t.Commit(st)
	return nil
}

// Staged is a batch every column has staged and none has committed. Commit
// publishes it; dropping it is all it takes to abandon it, since nothing a
// reader of the table can see has changed. It is the table's one staging
// buffer, filled in place: the table's next Stage reuses it.
type Staged struct{ cols []storage.StagedRows }

// Stage is the first half of AppendRows: it reports why the batch would be
// rejected, or returns it staged, each row walked once per column. A caller
// that must act between the check and the append (the engine logs the batch
// to its WAL there) calls Stage, then Commit; the table must not change in
// between. Columns share nothing, so a batch of parallelCells or more
// cells spreads them over up to GOMAXPROCS goroutines (the caller's
// included) and joins before returning: the stores and the first-touch page
// faults of different columns' chunks then overlap.
func (t *Table) Stage(rows [][]storage.Value) (Staged, error) {
	if err := t.checkArity(rows); err != nil {
		return Staged{}, err
	}
	return t.stage(len(rows), &batch{rows: rows})
}

// StageApart is Stage against an empty table — a schema — into a buffer
// of the caller's instead of the table's: an empty column has no spare
// room to stage into, so it changes nothing, any number of callers may
// stage against one table at once, and what it returns is never committed
// to it. It is the batch other tables of that schema take rows of through
// StageGather: checked once, each cell read once. reuse is a batch an
// earlier StageApart of the table returned that its caller is done with,
// or the zero Staged: its buffer and the room its codes took are written
// over, so a caller that keeps handing the last batch back allocates them
// once.
func (t *Table) StageApart(rows [][]storage.Value, reuse Staged) (Staged, error) {
	if t.NumRows() != 0 {
		panic(fmt.Sprintf("table %q: StageApart on a table of %d rows", t.name, t.NumRows()))
	}
	if err := t.checkArity(rows); err != nil {
		return Staged{}, err
	}
	b := &batch{rows: rows, into: reuse.cols}
	if len(b.into) != len(t.columns) {
		b.into = make([]storage.StagedRows, len(t.columns))
	}
	if err := t.stageColumns(t.workers(len(rows)), b); err != nil {
		return Staged{}, err
	}
	return Staged{cols: b.into}, nil
}

// StageGather is Stage for rows of a batch StageApart staged against an
// empty table of the same schema: batch rows rows, ascending, gathered
// column by column (storage.Column.StageGather). Only a string a sealed
// dictionary lacks can refuse them here; the error names its batch row.
func (t *Table) StageGather(src Staged, rows []int32) (Staged, error) {
	return t.stage(len(rows), &batch{src: src.cols, gather: rows})
}

// Col returns column ci's staged rows.
func (st Staged) Col(ci int) *storage.StagedRows { return &st.cols[ci] }

// checkArity reports the first row whose arity is not the schema's.
func (t *Table) checkArity(rows [][]storage.Value) error {
	for i, r := range rows {
		if len(r) != len(t.columns) {
			return fmt.Errorf("%w: row %d has %d values, schema has %d columns", ErrRowArity, i, len(r), len(t.columns))
		}
	}
	return nil
}

// batch is what one stage call stages: rows; rows [from, n) of one column
// block per column (all of n rows: a log record's are checked when it is
// decoded); or rows gather of a batch another table staged, src. into is
// where the columns stage it: the table's staging buffer unless set.
type batch struct {
	rows   [][]storage.Value
	blocks []storage.Block
	from   int
	src    []storage.StagedRows
	gather []int32
	into   []storage.StagedRows
}

// stage has every column stage the batch's n rows into the table's
// staging buffer, unless they would take it past MaxRows.
func (t *Table) stage(n int, b *batch) (Staged, error) {
	if have := uint64(t.NumRows()); uint64(n) > MaxRows-have {
		return Staged{}, fmt.Errorf("%w: table %q holds %d rows, %d more would pass the limit of %d", ErrTooManyRows, t.name, have, n, uint64(MaxRows))
	}
	if t.staged == nil {
		t.staged = make([]storage.StagedRows, len(t.columns))
	}
	b.into = t.staged
	if err := t.stageColumns(t.workers(n), b); err != nil {
		clear(t.staged)
		return Staged{}, err
	}
	return Staged{cols: t.staged}, nil
}

// workers is how many goroutines stage a batch of n rows.
func (t *Table) workers(n int) int {
	if n*len(t.columns) >= parallelCells {
		return min(len(t.columns), runtime.GOMAXPROCS(0))
	}
	return 1
}

// Commit is the second half of AppendRows: O(1) per column plus the
// batch's NULLs and new strings. It cannot fail.
func (t *Table) Commit(st Staged) {
	for ci, c := range t.columns {
		c.Commit(&st.cols[ci])
	}
}

// Blocks encodes a staged batch as one column block per column, in schema
// order: what the log records between Stage and Commit. The blocks alias a
// buffer the table reuses, so they are good until its next Blocks call.
func (t *Table) Blocks(st Staged) []storage.Block {
	t.blocks, t.blockBuf = t.blocks[:0], t.blockBuf[:0]
	for ci, c := range t.columns {
		var b storage.Block
		t.blockBuf, b = c.AppendBlock(t.blockBuf, &st.cols[ci])
		t.blocks = append(t.blocks, b)
	}
	return t.blocks
}

// Replay applies an append record of the log on the BaseRow chain: a
// record whose rows are all present is skipped, one partly present adds
// only the rows after them, and one that would leave a gap is an error.
// The record is staged from its column blocks and committed. It is how
// crash recovery and a snapshot load apply a record.
func (t *Table) Replay(rec *wal.Record) error {
	cur := uint64(t.NumRows())
	if rec.BaseRow > cur {
		return fmt.Errorf("table %q: replay gap: record base row %d, table has %d", t.name, rec.BaseRow, cur)
	}
	n := uint64(rec.NumRows())
	if rec.BaseRow+n <= cur {
		return nil // fully present already
	}
	if rec.Kind != wal.KindColumns {
		return fmt.Errorf("table %q: replay of a %s record", t.name, rec.Kind)
	}
	if len(rec.Blocks) != len(t.columns) {
		return fmt.Errorf("%w: %d column blocks, table %q has %d columns", ErrRowArity, len(rec.Blocks), t.name, len(t.columns))
	}
	from := int(cur - rec.BaseRow)
	st, err := t.stage(int(n)-from, &batch{blocks: rec.Blocks, from: from})
	if err != nil {
		return err
	}
	t.Commit(st)
	return nil
}

// stageColumn stages column ci of the batch into b.into.
func (t *Table) stageColumn(b *batch, ci int) error {
	c := t.columns[ci]
	var err error
	switch {
	case b.blocks != nil:
		err = c.StageBlock(&b.into[ci], &b.blocks[ci], b.from)
	case b.src != nil:
		err = c.StageGather(&b.into[ci], &b.src[ci], b.gather)
	default:
		err = c.Stage(&b.into[ci], b.rows, ci)
	}
	if err != nil {
		return fmt.Errorf("column %q: %w", c.Name(), err)
	}
	return nil
}

// stageColumns stages every column on the given number of goroutines and
// returns the error of the lowest failing column.
func (t *Table) stageColumns(workers int, b *batch) error {
	if workers <= 1 {
		for ci := range t.columns {
			if err := t.stageColumn(b, ci); err != nil {
				return err
			}
		}
		return nil
	}
	shared := *b // what the goroutines share; b itself stays on the stack
	errs := make([]error, len(t.columns))
	var next atomic.Int32
	work := func() {
		for {
			ci := int(next.Add(1)) - 1
			if ci >= len(t.columns) {
				return
			}
			errs[ci] = t.stageColumn(&shared, ci)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Batcher buffers rows and appends them to its table BulkRows at a time:
// the bulk loaders' way onto AppendRows. Rows are copied into one reused
// cell buffer, so Add's arguments may be reused by the caller. Flush
// appends what is buffered; a loader calls it once after its last Add. The
// batches stay staged beside the columns: a loader owns its table until it
// hands it over, and whoever reads a column first consolidates it.
type Batcher struct {
	t     *Table
	cells []storage.Value   // buffered rows, row-major
	rows  [][]storage.Value // row headers over cells, rebuilt per flush
}

// NewBatcher returns an empty Batcher appending to t.
func NewBatcher(t *Table) *Batcher { return &Batcher{t: t} }

// Add buffers one row, flushing when BulkRows rows are buffered. An error
// is that of the flush (or the row's arity): the rows buffered with a
// rejected batch are dropped, none of them applied.
func (b *Batcher) Add(vals ...storage.Value) error {
	if len(vals) != len(b.t.columns) {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrRowArity, len(vals), len(b.t.columns))
	}
	b.cells = append(b.cells, vals...)
	if len(b.cells) >= BulkRows*len(vals) {
		return b.Flush()
	}
	return nil
}

// Flush appends the buffered rows as one batch and empties the buffer.
func (b *Batcher) Flush() error {
	nc := len(b.t.columns)
	b.rows = b.rows[:0]
	for off := 0; nc > 0 && off < len(b.cells); off += nc {
		b.rows = append(b.rows, b.cells[off:off+nc:off+nc])
	}
	err := b.t.AppendRows(b.rows)
	b.cells = b.cells[:0]
	return err
}

// Rows materializes rows [lo, hi) as dynamic values in schema order, over
// one backing array. Like every read of cells it consolidates the columns,
// so a table an engine serves is read through Engine.ReadTable.
func (t *Table) Rows(lo, hi int) ([][]storage.Value, error) {
	if lo < 0 || hi > t.NumRows() || lo > hi {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, lo, hi, t.NumRows())
	}
	nc := len(t.columns)
	cells := make([]storage.Value, (hi-lo)*nc)
	rows := make([][]storage.Value, hi-lo)
	for i := range rows {
		rows[i] = cells[i*nc : (i+1)*nc : (i+1)*nc]
		for ci, c := range t.columns {
			rows[i][ci] = c.Value(lo + i)
		}
	}
	return rows, nil
}

// Row materializes row i as dynamic values in schema order.
func (t *Table) Row(i int) ([]storage.Value, error) {
	if i < 0 || i >= t.NumRows() {
		return nil, fmt.Errorf("%w: %d of %d", ErrOutOfRange, i, t.NumRows())
	}
	out := make([]storage.Value, len(t.columns))
	for ci, c := range t.columns {
		out[ci] = c.Value(i)
	}
	return out, nil
}

// CheckInvariants verifies that all columns have equal length; the engine
// calls this in tests and after bulk mutations.
func (t *Table) CheckInvariants() error {
	if len(t.columns) == 0 {
		return nil
	}
	n := t.columns[0].Len()
	for _, c := range t.columns[1:] {
		if c.Len() != n {
			return fmt.Errorf("%w: %q has %d rows, %q has %d", ErrLengthSkew, t.columns[0].Name(), n, c.Name(), c.Len())
		}
	}
	return nil
}
