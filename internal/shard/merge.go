package shard

import (
	"fmt"
	"sort"

	"adskip/internal/engine"
	"adskip/internal/storage"
)

// rewrite captures how the logical query was transformed into the
// per-shard query and how to undo it at merge time.
type rewrite struct {
	q engine.Query // per-shard query

	// aggPos[i] is the position of logical aggregate i in the per-shard
	// aggregate list; AVG aggregates occupy two slots there (SUM at
	// aggPos[i], COUNT at aggPos[i]+1) since averages of averages are
	// wrong — only sums and counts recombine.
	aggPos []int

	// orderIdx is the position of the ORDER BY column in the per-shard
	// select list; orderAdded marks it as injected (absent from the
	// logical projection, stripped after the merge).
	orderIdx   int
	orderAdded bool
}

// rewriteQuery derives the per-shard query: AVG → SUM+COUNT, the ORDER
// BY column injected into the projection when absent, and the row limit
// pushed down where it cannot change merged results — ORDER BY keeps
// per-shard top-L sufficient for the global top-L, GROUP BY returns
// groups in key order so a group in the global first L has per-shard
// rank <= L, and plain projections concatenate. The one shape where a
// pushed limit could stop per-shard aggregate accumulation early
// (projection + aggregates, unordered) keeps the full scan.
func rewriteQuery(q engine.Query) *rewrite {
	rw := &rewrite{q: q, orderIdx: -1}

	if len(q.Aggs) > 0 {
		rw.aggPos = make([]int, len(q.Aggs))
		var sub []engine.Agg
		for i, a := range q.Aggs {
			rw.aggPos[i] = len(sub)
			if a.Kind == engine.Avg {
				sub = append(sub,
					engine.Agg{Kind: engine.Sum, Col: a.Col},
					engine.Agg{Kind: engine.CountCol, Col: a.Col})
			} else {
				sub = append(sub, a)
			}
		}
		rw.q.Aggs = sub
	}

	// Only a valid ORDER BY (a projection, no GROUP BY) is rewritten; any
	// other reaches the shards as written, and they reject it as an
	// unsharded engine would.
	if q.OrderBy != "" && q.GroupBy == "" && len(q.Select) > 0 {
		for i, name := range q.Select {
			if name == q.OrderBy {
				rw.orderIdx = i
				break
			}
		}
		if rw.orderIdx < 0 {
			sel := make([]string, len(q.Select), len(q.Select)+1)
			copy(sel, q.Select)
			rw.q.Select = append(sel, q.OrderBy)
			rw.orderIdx = len(q.Select)
			rw.orderAdded = true
		}
	}

	if q.Limit > 0 && len(q.Select) > 0 && len(q.Aggs) > 0 && q.OrderBy == "" {
		rw.q.Limit = 0
	}
	return rw
}

// mergeResults combines the per-shard partial results into the logical
// result. partials[i] corresponds to targets[i]; both are in ascending
// shard order, which pins the deterministic output order (concatenation
// and equal-key tie-breaks follow shard number).
func (m *Manager) mergeResults(q engine.Query, rw *rewrite, targets []int, partials []*engine.Result) (*engine.Result, error) {
	out := &engine.Result{}
	for _, p := range partials {
		out.Stats.Add(p.Stats)
	}

	switch {
	case q.GroupBy != "":
		if err := m.mergeGroups(q, rw, partials, out); err != nil {
			return nil, err
		}
		// Grouped Count is the matching-row count (not groups), limit or
		// not — same as one engine. The limit applies only to Rows.
		for _, p := range partials {
			out.Count += p.Count
		}
	case len(q.Select) > 0:
		if err := mergeRows(q, rw, targets, partials, out); err != nil {
			return nil, err
		}
		out.Count = len(out.Rows)
		if err := m.mergeAggs(q, rw, partials, out); err != nil {
			return nil, err
		}
	default:
		for _, p := range partials {
			out.Count += p.Count
		}
		if err := m.mergeAggs(q, rw, partials, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeAggs recombines global (ungrouped) aggregates from the per-shard
// partial values.
func (m *Manager) mergeAggs(q engine.Query, rw *rewrite, partials []*engine.Result, out *engine.Result) error {
	if len(q.Aggs) == 0 {
		return nil
	}
	cells := make([][]storage.Value, len(partials))
	for i, p := range partials {
		if len(p.Aggs) != len(rw.q.Aggs) {
			return fmt.Errorf("shard: partial carried %d aggregates, want %d", len(p.Aggs), len(rw.q.Aggs))
		}
		cells[i] = p.Aggs
	}
	merged, err := combineAggCells(q.Aggs, rw.aggPos, cells)
	if err != nil {
		return err
	}
	out.Aggs = merged
	return nil
}

// combineAggCells merges per-shard aggregate cell slices (laid out per
// the rewrite) into the logical aggregate values.
func combineAggCells(aggs []engine.Agg, aggPos []int, cells [][]storage.Value) ([]storage.Value, error) {
	out := make([]storage.Value, len(aggs))
	for i, a := range aggs {
		pos := aggPos[i]
		switch a.Kind {
		case engine.CountStar, engine.CountCol:
			var n int64
			for _, c := range cells {
				n += c[pos].Int()
			}
			out[i] = storage.IntValue(n)
		case engine.Sum:
			out[i] = combineSum(cells, pos)
		case engine.Min:
			out[i] = combineExtreme(cells, pos, true)
		case engine.Max:
			out[i] = combineExtreme(cells, pos, false)
		case engine.Avg:
			var n int64
			var sumF float64
			var sumI int64
			isFloat := false
			for _, c := range cells {
				cnt := c[pos+1].Int()
				if cnt == 0 {
					continue
				}
				n += cnt
				sv := c[pos]
				if sv.Type() == storage.Float64 {
					isFloat = true
					sumF += sv.Float()
				} else {
					sumI += sv.Int()
				}
			}
			if n == 0 {
				out[i] = storage.NullValue(storage.Float64)
			} else if isFloat {
				out[i] = storage.FloatValue(sumF / float64(n))
			} else {
				out[i] = storage.FloatValue(float64(sumI) / float64(n))
			}
		default:
			return nil, fmt.Errorf("shard: cannot merge aggregate %v", a.Kind)
		}
	}
	return out, nil
}

// combineSum adds the non-NULL partial sums; NULL iff every shard's
// partial is NULL (no qualifying non-null row anywhere), following SQL.
func combineSum(cells [][]storage.Value, pos int) storage.Value {
	var sumI int64
	var sumF float64
	typ := storage.Int64
	seen := false
	for _, c := range cells {
		v := c[pos]
		if v.IsNull() {
			typ = v.Type()
			continue
		}
		seen = true
		typ = v.Type()
		if v.Type() == storage.Float64 {
			sumF += v.Float()
		} else {
			sumI += v.Int()
		}
	}
	if !seen {
		return storage.NullValue(typ)
	}
	if typ == storage.Float64 {
		return storage.FloatValue(sumF)
	}
	return storage.IntValue(sumI)
}

// combineExtreme folds MIN (wantMin) or MAX over the non-NULL partials.
func combineExtreme(cells [][]storage.Value, pos int, wantMin bool) storage.Value {
	var best storage.Value
	seen := false
	for _, c := range cells {
		v := c[pos]
		if v.IsNull() {
			if !seen {
				best = v
			}
			continue
		}
		if !seen {
			best, seen = v, true
			continue
		}
		if less := valueLess(v, best); (wantMin && less) || (!wantMin && valueLess(best, v)) {
			best = v
		}
	}
	return best
}

// valueLess compares two non-NULL values of the same logical type.
func valueLess(a, b storage.Value) bool {
	switch a.Type() {
	case storage.Int64:
		return a.Int() < b.Int()
	case storage.Float64:
		return a.Float() < b.Float()
	case storage.String:
		return a.Str() < b.Str()
	}
	return false
}

// groupKey is a comparable form of a GROUP BY key value.
type groupKey struct {
	null bool
	i    int64
	f    float64
	s    string
}

func keyOf(v storage.Value) groupKey {
	if v.IsNull() {
		return groupKey{null: true}
	}
	switch v.Type() {
	case storage.Int64:
		return groupKey{i: v.Int()}
	case storage.Float64:
		return groupKey{f: v.Float()}
	default:
		return groupKey{s: v.Str()}
	}
}

// mergeGroups hash-merges per-shard GROUP BY rows by key value, combines
// each group's partial aggregates, and emits groups in key order (NULL
// group last) — the same order one engine produces — truncated to the
// limit.
func (m *Manager) mergeGroups(q engine.Query, rw *rewrite, partials []*engine.Result, out *engine.Result) error {
	type group struct {
		key   storage.Value
		cells [][]storage.Value
	}
	groups := make(map[groupKey]*group)
	for _, p := range partials {
		for _, row := range p.Rows {
			if len(row) != 1+len(rw.q.Aggs) {
				return fmt.Errorf("shard: grouped row arity %d, want %d", len(row), 1+len(rw.q.Aggs))
			}
			k := keyOf(row[0])
			g, ok := groups[k]
			if !ok {
				g = &group{key: row[0]}
				groups[k] = g
			}
			g.cells = append(g.cells, row[1:])
		}
	}

	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.null || kb.null {
			return !ka.null && kb.null // NULL group last
		}
		return valueLess(groups[ka].key, groups[kb].key)
	})
	if q.Limit > 0 && len(keys) > q.Limit {
		keys = keys[:q.Limit]
	}

	gcol, err := m.proto.Column(q.GroupBy)
	if err != nil {
		return err
	}
	out.Columns = make([]string, 1+len(q.Aggs))
	out.Types = make([]storage.Type, 1+len(q.Aggs))
	out.Columns[0] = q.GroupBy
	out.Types[0] = gcol.Type()
	for i, a := range q.Aggs {
		out.Columns[i+1] = a.String()
		out.Types[i+1] = m.aggResultType(a)
	}

	out.Rows = make([][]storage.Value, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		merged, err := combineAggCells(q.Aggs, rw.aggPos, g.cells)
		if err != nil {
			return err
		}
		row := make([]storage.Value, 1+len(merged))
		row[0] = g.key
		copy(row[1:], merged)
		out.Rows = append(out.Rows, row)
	}
	return nil
}

// aggResultType mirrors the engine's result typing: COUNT is BIGINT,
// AVG is DOUBLE, SUM/MIN/MAX follow the aggregated column.
func (m *Manager) aggResultType(a engine.Agg) storage.Type {
	switch a.Kind {
	case engine.CountStar, engine.CountCol:
		return storage.Int64
	case engine.Avg:
		return storage.Float64
	}
	if col, err := m.proto.Column(a.Col); err == nil {
		return col.Type()
	}
	return storage.Int64
}

// mergeRows merges projection rows. With ORDER BY it is a streaming
// k-way merge over the already-sorted per-shard slices, mirroring the
// engine's comparator (value order, NULLs last in both directions, desc
// reverses the non-NULL comparison only) with a deterministic tie-break:
// equal keys come out in ascending shard number, then per-shard row
// order (ascending row index, since each shard's sort is stable over
// ascending ids). Without ORDER BY, rows concatenate in shard order.
func mergeRows(q engine.Query, rw *rewrite, targets []int, partials []*engine.Result, out *engine.Result) error {
	// Result column shape comes from the logical projection: take the
	// first partial's columns, minus the injected order column.
	for _, p := range partials {
		keep := len(p.Columns)
		if rw.orderAdded {
			keep--
		}
		out.Columns = append([]string(nil), p.Columns[:keep]...)
		out.Types = append([]storage.Type(nil), p.Types[:keep]...)
		break
	}

	if q.OrderBy == "" {
		for _, p := range partials {
			out.Rows = append(out.Rows, p.Rows...)
		}
		if q.Limit > 0 && len(out.Rows) > q.Limit {
			out.Rows = out.Rows[:q.Limit]
		}
		return nil
	}

	oi := rw.orderIdx
	cursors := make([]int, len(partials))
	for {
		if q.Limit > 0 && len(out.Rows) >= q.Limit {
			break
		}
		best := -1
		for i, p := range partials {
			if cursors[i] >= len(p.Rows) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a := p.Rows[cursors[i]][oi]
			b := partials[best].Rows[cursors[best]][oi]
			if orderedBefore(a, b, q.OrderDesc) {
				best = i
			}
			// Ties keep the earlier cursor (lower shard number): targets
			// and partials are in ascending shard order.
		}
		if best < 0 {
			break
		}
		row := partials[best].Rows[cursors[best]]
		cursors[best]++
		if rw.orderAdded {
			row = row[:len(row)-1]
		}
		out.Rows = append(out.Rows, row)
	}
	return nil
}

// orderedBefore reports whether a strictly precedes b under the
// engine's ORDER BY comparator: NULLs last regardless of direction,
// descending reverses only the non-NULL comparison.
func orderedBefore(a, b storage.Value, desc bool) bool {
	an, bn := a.IsNull(), b.IsNull()
	if an || bn {
		return !an && bn
	}
	if desc {
		return valueLess(b, a)
	}
	return valueLess(a, b)
}
