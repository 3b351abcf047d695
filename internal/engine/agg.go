package engine

import (
	"fmt"

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

// aggAcc accumulates one aggregate over qualifying rows.
type aggAcc struct {
	kind AggKind
	col  *storage.Column // nil for CountStar

	rows int64 // qualifying rows seen (CountStar)
	n    int64 // non-null rows of col among qualifying rows
	sumI int64
	sumF float64
	minC int64 // running bounds as codes
	maxC int64
	seen bool
}

func newAggAcc(kind AggKind, col *storage.Column) *aggAcc {
	return &aggAcc{kind: kind, col: col}
}

// addRow folds in one qualifying row.
func (a *aggAcc) addRow(row int) {
	a.rows++
	if a.col == nil {
		return
	}
	if a.col.IsNull(row) {
		return
	}
	a.n++
	c := a.col.Vec().At(row)
	switch a.col.Type() {
	case storage.Int64:
		a.sumI += c
	case storage.Float64:
		a.sumF += storage.DecodeFloat64(c)
	}
	if !a.seen {
		a.minC, a.maxC = c, c
		a.seen = true
	} else {
		if c < a.minC {
			a.minC = c
		}
		if c > a.maxC {
			a.maxC = c
		}
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
		if nulls != nil && nulls.Get(i) {
			continue
		}
		a.n++
		c := codes.At(i)
		switch a.col.Type() {
		case storage.Int64:
			a.sumI += c
		case storage.Float64:
			a.sumF += storage.DecodeFloat64(c)
		}
		if !a.seen {
			a.minC, a.maxC = c, c
			a.seen = true
		} else {
			if c < a.minC {
				a.minC = c
			}
			if c > a.maxC {
				a.maxC = c
			}
		}
	}
}

// result materializes the aggregate value. Empty inputs yield NULL for
// SUM/MIN/MAX/AVG and 0 for COUNT, following SQL.
func (a *aggAcc) result() storage.Value {
	switch a.kind {
	case CountStar:
		return storage.IntValue(a.rows)
	case CountCol:
		return storage.IntValue(a.n)
	}
	if a.n == 0 {
		t := storage.Int64
		if a.col != nil {
			t = a.col.Type()
		}
		return storage.NullValue(t)
	}
	switch a.kind {
	case Sum:
		if a.col.Type() == storage.Float64 {
			return storage.FloatValue(a.sumF)
		}
		return storage.IntValue(a.sumI)
	case Avg:
		if a.col.Type() == storage.Float64 {
			return storage.FloatValue(a.sumF / float64(a.n))
		}
		return storage.FloatValue(float64(a.sumI) / float64(a.n))
	case Min:
		return a.codeValue(a.minC)
	case Max:
		return a.codeValue(a.maxC)
	}
	return storage.NullValue(storage.Int64)
}

// codeValue decodes a running code bound back to a dynamic value.
func (a *aggAcc) codeValue(c int64) storage.Value {
	switch a.col.Type() {
	case storage.Int64:
		return storage.IntValue(c)
	case storage.Float64:
		return storage.FloatValue(storage.DecodeFloat64(c))
	case storage.String:
		return storage.StringValue(a.col.Dict().Value(c))
	}
	return storage.NullValue(a.col.Type())
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
