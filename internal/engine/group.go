package engine

import (
	"sort"

	"adskip/internal/storage"
)

// grouper implements single-column GROUP BY aggregation: it maintains one
// accumulator set per distinct group code (plus a NULL group), fed row by
// row from the executor's qualifying-row machinery. Group codes
// order-preserve values, so groups sort by code and come back in value
// order.
type grouper struct {
	col     *storage.Column
	aggs    []Agg
	accCols []*storage.Column // resolved aggregate input columns
	groups  map[int64][]aggAcc
	nullAcc []aggAcc // group of NULL keys; nil until first NULL row
}

// newGrouper builds a grouper; accCols[i] is the resolved column for
// aggs[i] (nil for COUNT(*)).
func newGrouper(col *storage.Column, aggs []Agg, accCols []*storage.Column) *grouper {
	return &grouper{col: col, aggs: aggs, accCols: accCols, groups: make(map[int64][]aggAcc)}
}

// accsFor returns (creating on demand) the accumulator set for row's group.
func (g *grouper) accsFor(row int) []aggAcc {
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

func (g *grouper) newAccs() []aggAcc {
	accs := make([]aggAcc, len(g.aggs))
	for i, a := range g.aggs {
		accs[i] = newAggAcc(a.Kind, g.accCols[i])
	}
	return accs
}

// addRow folds one qualifying row into its group.
func (g *grouper) addRow(row int) {
	accs := g.accsFor(row)
	for i := range accs {
		accs[i].addRow(row)
	}
}

// group is one GROUP BY key and its aggregate states, decoded.
type group struct {
	key  storage.Value
	accs []aggAcc
}

// sorted returns the first limit groups (every group when limit is 0) in
// key order, NULL group last, their keys and states decoded.
func (g *grouper) sorted(limit int) []group {
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
	out := make([]group, 0, len(codes)+1)
	for _, code := range codes {
		out = append(out, group{key: decodeCode(g.col, code), accs: g.groups[code]})
	}
	if g.nullAcc != nil {
		out = append(out, group{key: storage.NullValue(g.col.Type()), accs: g.nullAcc})
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	for _, gr := range out {
		for i := range gr.accs {
			gr.accs[i].decode()
		}
	}
	return out
}
