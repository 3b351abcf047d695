package engine

import (
	"fmt"
	"sort"

	"adskip/internal/storage"
)

// grouper implements single-column GROUP BY aggregation: it maintains one
// accumulator set per distinct group code (plus a NULL group), fed row by
// row or window by window from the executor's qualifying-row machinery.
// Group codes order-preserve values, so results sort by code and come back
// in value order.
type grouper struct {
	col     *storage.Column
	aggs    []Agg
	accCols []*storage.Column // resolved aggregate input columns
	groups  map[int64][]*aggAcc
	nullAcc []*aggAcc // group of NULL keys; nil until first NULL row
}

// newGrouper builds a grouper; accCols[i] is the resolved column for
// aggs[i] (nil for COUNT(*)).
func newGrouper(col *storage.Column, aggs []Agg, accCols []*storage.Column) *grouper {
	return &grouper{col: col, aggs: aggs, accCols: accCols, groups: make(map[int64][]*aggAcc)}
}

// accsFor returns (creating on demand) the accumulator set for row's group.
func (g *grouper) accsFor(row int) []*aggAcc {
	if g.col.IsNull(row) {
		if g.nullAcc == nil {
			g.nullAcc = g.newAccs()
		}
		return g.nullAcc
	}
	code := g.col.Vec().At(row)
	accs, ok := g.groups[code]
	if !ok {
		accs = g.newAccs()
		g.groups[code] = accs
	}
	return accs
}

func (g *grouper) newAccs() []*aggAcc {
	accs := make([]*aggAcc, len(g.aggs))
	for i, a := range g.aggs {
		accs[i] = newAggAcc(a.Kind, g.accCols[i])
	}
	return accs
}

// addRow folds one qualifying row into its group.
func (g *grouper) addRow(row int) {
	for _, acc := range g.accsFor(row) {
		acc.addRow(row)
	}
}

// result materializes the grouped rows in key order (NULL group last) and
// the result column names and types.
func (g *grouper) result() ([]string, []storage.Type, [][]storage.Value) {
	cols := make([]string, 1+len(g.aggs))
	types := make([]storage.Type, 1+len(g.aggs))
	cols[0] = g.col.Name()
	types[0] = g.col.Type()
	for i, a := range g.aggs {
		cols[i+1] = a.String()
		types[i+1] = aggResultType(a.Kind, g.accCols[i])
	}
	codes := make([]int64, 0, len(g.groups))
	for code := range g.groups {
		codes = append(codes, code)
	}
	if g.col.Type() == storage.String && !g.col.DictSorted() {
		// Unsealed dictionary: codes are insertion-ordered, so sort keys
		// by their string values instead.
		d := g.col.Dict()
		sort.Slice(codes, func(i, j int) bool { return d.Value(codes[i]) < d.Value(codes[j]) })
	} else {
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	}
	rows := make([][]storage.Value, 0, len(codes)+1)
	for _, code := range codes {
		row := make([]storage.Value, 1+len(g.aggs))
		row[0] = g.keyValue(code)
		for i, acc := range g.groups[code] {
			row[i+1] = acc.result()
		}
		rows = append(rows, row)
	}
	if g.nullAcc != nil {
		row := make([]storage.Value, 1+len(g.aggs))
		row[0] = storage.NullValue(g.col.Type())
		for i, acc := range g.nullAcc {
			row[i+1] = acc.result()
		}
		rows = append(rows, row)
	}
	return cols, types, rows
}

// aggResultType is the logical type an aggregate's result column carries:
// counts are BIGINT, AVG is always DOUBLE, and SUM/MIN/MAX follow the
// aggregated column.
func aggResultType(kind AggKind, col *storage.Column) storage.Type {
	switch kind {
	case CountStar, CountCol:
		return storage.Int64
	case Avg:
		return storage.Float64
	default:
		if col != nil {
			return col.Type()
		}
		return storage.Int64
	}
}

// keyValue decodes a group code back to a dynamic value.
func (g *grouper) keyValue(code int64) storage.Value {
	switch g.col.Type() {
	case storage.Int64:
		return storage.IntValue(code)
	case storage.Float64:
		return storage.FloatValue(storage.DecodeFloat64(code))
	case storage.String:
		return storage.StringValue(g.col.Dict().Value(code))
	}
	panic(fmt.Sprintf("engine: unknown group column type %v", g.col.Type()))
}
