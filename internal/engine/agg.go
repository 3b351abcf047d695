package engine

import (
	"fmt"

	"adskip/internal/dict"
	"adskip/internal/storage"
)

// AggKind is an aggregate function.
type AggKind uint8

// Supported aggregates.
const (
	CountStar AggKind = iota // COUNT(*)
	CountCol                 // COUNT(col) — non-null rows
	Sum
	Min
	Max
	Avg
)

// String returns the SQL spelling.
func (k AggKind) String() string {
	switch k {
	case CountStar, CountCol:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// Agg is one aggregate in a query's select list.
type Agg struct {
	Kind AggKind
	Col  string // empty for CountStar
}

// String renders the aggregate in SQL syntax.
func (a Agg) String() string {
	if a.Kind == CountStar {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
}

// aggAcc is one aggregate's running state. The scan folds rows into it by
// code; decode then turns the extremes into values, and from there on the
// state no longer depends on its table: states from engines with private
// dictionaries merge, and result finishes any of them.
type aggAcc struct {
	kind AggKind
	col  *storage.Column // the scanned column, nil for CountStar
	typ  storage.Type    // col's type; Int64 for CountStar
	// dict is set for an unsealed string dictionary, whose codes are in
	// insertion order: extremes then compare by value.
	dict *dict.Dict

	rows       int64 // qualifying rows seen (CountStar)
	n          int64 // non-null rows of col among qualifying rows
	sumI       int64
	sumF       float64
	minC, maxC int64         // running bounds as codes, while n > 0
	min, max   storage.Value // the bounds as values, once decoded
}

func newAggAcc(kind AggKind, col *storage.Column) aggAcc {
	a := aggAcc{kind: kind, col: col, typ: storage.Int64}
	if col != nil {
		a.typ = col.Type()
		if a.typ == storage.String && !col.DictSorted() {
			a.dict = col.Dict()
		}
	}
	return a
}

// addRow folds in one qualifying row.
func (a *aggAcc) addRow(row int) {
	a.rows++
	if a.col != nil && !a.col.IsNull(row) {
		a.fold(a.col.Vec().At(row))
	}
}

// addWindow folds in a window of rows known to all qualify (a covered
// candidate). CountStar needs no data read; other aggregates read the
// window.
func (a *aggAcc) addWindow(lo, hi int) {
	a.rows += int64(hi - lo)
	if a.col == nil {
		return
	}
	if a.kind == CountCol && !a.col.HasNulls() {
		a.n += int64(hi - lo)
		return
	}
	codes := a.col.Vec()
	nulls := a.col.Nulls()
	for i := lo; i < hi; i++ {
		if nulls == nil || !nulls.Get(i) {
			a.fold(codes.At(i))
		}
	}
}

// fold adds one non-NULL code.
func (a *aggAcc) fold(c int64) {
	a.n++
	switch a.typ {
	case storage.Int64:
		a.sumI += c
	case storage.Float64:
		a.sumF += storage.DecodeFloat64(c)
	}
	if a.n == 1 {
		a.minC, a.maxC = c, c
	} else if a.dict != nil {
		if a.dict.Value(c) < a.dict.Value(a.minC) {
			a.minC = c
		}
		if a.dict.Value(c) > a.dict.Value(a.maxC) {
			a.maxC = c
		}
	} else {
		a.minC, a.maxC = min(a.minC, c), max(a.maxC, c)
	}
}

// decode turns the code extremes into values: the last step that reads
// the table.
func (a *aggAcc) decode() {
	if a.n > 0 && a.col != nil {
		a.min, a.max = decodeCode(a.col, a.minC), decodeCode(a.col, a.maxC)
	}
}

// merge folds o, a decoded state of the same aggregate, into a.
func (a *aggAcc) merge(o *aggAcc) {
	if o.n > 0 && (a.n == 0 || storage.Compare(o.min, a.min) < 0) {
		a.min = o.min
	}
	if o.n > 0 && (a.n == 0 || storage.Compare(o.max, a.max) > 0) {
		a.max = o.max
	}
	a.rows += o.rows
	a.n += o.n
	a.sumI += o.sumI
	a.sumF += o.sumF
}

// result finishes a decoded state. Empty inputs yield NULL for
// SUM/MIN/MAX/AVG and 0 for COUNT, following SQL.
func (a *aggAcc) result() storage.Value {
	switch {
	case a.kind == CountStar:
		return storage.IntValue(a.rows)
	case a.kind == CountCol:
		return storage.IntValue(a.n)
	case a.n == 0:
		return storage.NullValue(a.resultType())
	case a.kind == Min:
		return a.min
	case a.kind == Max:
		return a.max
	case a.kind == Avg && a.typ == storage.Float64:
		return storage.FloatValue(a.sumF / float64(a.n))
	case a.kind == Avg:
		return storage.FloatValue(float64(a.sumI) / float64(a.n))
	case a.typ == storage.Float64:
		return storage.FloatValue(a.sumF)
	}
	return storage.IntValue(a.sumI)
}

// resultType is the logical type of the aggregate's result column: counts
// are BIGINT, AVG is always DOUBLE, and SUM/MIN/MAX follow the aggregated
// column.
func (a *aggAcc) resultType() storage.Type {
	switch a.kind {
	case CountStar, CountCol:
		return storage.Int64
	case Avg:
		return storage.Float64
	}
	return a.typ
}

// decodeCode turns a code of col back into its value.
func decodeCode(col *storage.Column, c int64) storage.Value {
	switch col.Type() {
	case storage.Int64:
		return storage.IntValue(c)
	case storage.Float64:
		return storage.FloatValue(storage.DecodeFloat64(c))
	case storage.String:
		return storage.StringValue(col.Dict().Value(c))
	}
	panic(fmt.Sprintf("engine: unknown column type %v", col.Type()))
}

// validateAgg checks an aggregate against the table schema.
func (e *Engine) validateAgg(a Agg) (*storage.Column, error) {
	if a.Kind == CountStar {
		if a.Col != "" {
			return nil, fmt.Errorf("%w: COUNT(*) with column %q", ErrUnsupportedAgg, a.Col)
		}
		return nil, nil
	}
	col, err := e.readColumn(a.Col)
	if err != nil {
		return nil, err
	}
	switch a.Kind {
	case CountCol, Min, Max:
		return col, nil
	case Sum, Avg:
		if col.Type() == storage.String {
			return nil, fmt.Errorf("%w: %s over string column %q", ErrUnsupportedAgg, a.Kind, a.Col)
		}
		return col, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrUnsupportedAgg, a.Kind)
}
