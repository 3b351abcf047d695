package engine

import (
	"adskip/internal/obs"
	"adskip/internal/storage"
)

// Partial is an executed query before it is finished into a Result: the
// state that partials of the same query over disjoint row sets (a sharded
// table's shards) merge in, so that a result is finished in one place, by
// Finish, whether one engine or several produced it.
//
// A partial holds the match count and ExecStats, each aggregate's running
// state, the groups (first LIMIT by key, NULL last), or the retained rows —
// an ORDER BY's first LIMIT rows with their order values, or an unordered
// projection's first LIMIT rows. Keys, extremes and order values are
// values, not codes: every engine keeps a private dictionary.
type Partial struct {
	// res carries the count, the stats, the column shape, the trace and
	// the retained rows; Finish completes it in place.
	res        Result
	limit      int
	grouped    bool
	projecting bool
	ordered    bool
	desc       bool
	aggs       []aggAcc        // ungrouped aggregates
	groups     []group         // GROUP BY
	keys       []storage.Value // ORDER BY: the order value of res.Rows[i]
}

// Trace is the trace of the execution that produced the partial.
func (p *Partial) Trace() *obs.QueryTrace { return p.res.Trace }

// Merge folds o into p. Both are partials of the same query, and o's rows
// follow p's: on equal keys p's rows come first, which makes a sharded
// answer deterministic when partials merge in ascending shard order.
func (p *Partial) Merge(o *Partial) {
	p.res.Stats.Add(o.res.Stats)
	p.res.Count += o.res.Count
	// Partials of one query trace the same predicate columns in the same
	// order (Conj.Columns over one schema): sections add by position, and
	// the lowered predicate stays the first partial's.
	for i := range p.res.Trace.Predicates {
		pt, ot := &p.res.Trace.Predicates[i], &o.res.Trace.Predicates[i]
		pt.Add(ot.Cost)
		if pt.Skipper == "" {
			pt.Skipper = ot.Skipper
		}
	}
	for i := range p.aggs {
		p.aggs[i].merge(&o.aggs[i])
	}
	switch {
	case p.grouped:
		p.groups = p.foldGroups(o.groups)
	case p.ordered:
		p.mergeOrdered(o)
	case p.projecting:
		p.res.Rows = append(p.res.Rows, o.res.Rows...)
		if p.limit > 0 && len(p.res.Rows) > p.limit {
			p.res.Rows = p.res.Rows[:p.limit]
		}
		p.res.Count = len(p.res.Rows)
	}
}

// foldGroups merges o's groups into p's by key, folding the states of
// equal keys, and keeps the first limit.
func (p *Partial) foldGroups(o []group) []group {
	a := p.groups
	out := make([]group, 0, len(a)+len(o))
	for (len(a) > 0 || len(o) > 0) && (p.limit == 0 || len(out) < p.limit) {
		c := -1
		switch {
		case len(a) == 0:
			c = 1
		case len(o) > 0:
			c = storage.Compare(a[0].key, o[0].key)
		}
		switch {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, o = append(out, o[0]), o[1:]
		default:
			for i := range a[0].accs {
				a[0].accs[i].merge(&o[0].accs[i])
			}
			out, a, o = append(out, a[0]), a[1:], o[1:]
		}
	}
	return out
}

// mergeOrdered merges o's retained rows into p's by order value and keeps
// the first limit.
func (p *Partial) mergeOrdered(o *Partial) {
	n := len(p.keys) + len(o.keys)
	if p.limit > 0 {
		n = min(n, p.limit)
	}
	if n == 0 {
		return
	}
	rows := make([][]storage.Value, 0, n)
	keys := make([]storage.Value, 0, n)
	i, j := 0, 0
	for len(rows) < n {
		if j == len(o.keys) || i < len(p.keys) && !p.before(o.keys[j], p.keys[i]) {
			rows, keys = append(rows, p.res.Rows[i]), append(keys, p.keys[i])
			i++
		} else {
			rows, keys = append(rows, o.res.Rows[j]), append(keys, o.keys[j])
			j++
		}
	}
	p.res.Rows, p.keys, p.res.Count = rows, keys, n
}

// before is the ORDER BY ordering of values: NULLs last in both
// directions, a descending order reversing only the non-NULL comparison.
func (p *Partial) before(a, b storage.Value) bool {
	if p.desc && !a.IsNull() && !b.IsNull() {
		a, b = b, a
	}
	return storage.Compare(a, b) < 0
}

// Finish turns the partial into the query's result: aggregate values,
// one row per group, or the retained rows.
func (p *Partial) Finish() *Result {
	res := &p.res
	if p.grouped {
		res.Rows = make([][]storage.Value, len(p.groups))
		for i, g := range p.groups {
			row := make([]storage.Value, 1+len(g.accs))
			row[0] = g.key
			for j := range g.accs {
				row[1+j] = g.accs[j].result()
			}
			res.Rows[i] = row
		}
		return res
	}
	if len(p.aggs) > 0 {
		res.Aggs = make([]storage.Value, len(p.aggs))
		for i := range p.aggs {
			res.Aggs[i] = p.aggs[i].result()
		}
	}
	return res
}
