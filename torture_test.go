package adskip

// The torture oracle: skipping never changes an answer. Each family runs
// seeded SQL on every configuration — Policy None, static, imprint and
// adaptive, each unsharded, in 4 shards by range and in 4 by hash — and
// holds every answer to an evaluator that computes it from the
// generator's own rows, in plain Go over Value's accessors. The evaluator
// shares no code with the engine, the predicate layer, the SQL front end
// or the storage encodings, so a defect that every configuration shares
// fails it too. Families: Eval on fresh tables, Error on statements and
// appends all must refuse, Lifecycle after each step of a table's
// life, Concurrency under a writer. Subtests are named seed=N, and a
// failure names the seed, the step, the configuration and the SQL.
// FuzzTorture runs one small lifecycle under go test -fuzz, drawing every
// choice from the fuzzer's plan bytes and then from its seed; the corpus
// in testdata/fuzz/FuzzTorture replays under plain go test, one case with
// go test -run 'FuzzTorture/<name>' . Answers are checked here only: the
// sql and shard fuzz targets keep what this generator cannot reach
// (arbitrary SQL text, merged traces, gather against stage).

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adskip/internal/faultinject"
)

// Seed counts and sizes. Zones are small (32-row static zones, 64-row
// adaptive zones of 8-row parts) so that a few thousand rows make enough
// of them for adaptive maps to split, merge, fold tails and switch off.
const (
	tortureSeeds    = 3
	tortureBaseRows = 1500
	tortureBatch    = 24 // queries after every step
	tortureRounds   = 6  // query batches per Eval seed
	tortureSteps    = 12 // Lifecycle steps per seed
)

// tortureWords is s's dictionary, which EnableSkipping seals: a batch
// holding another word is refused.
var tortureWords = []string{"ash", "birch", "cedar", "elm", "fir", "larch", "oak", "pine"}

var tortureCols = []ColumnDef{Col("k", Int64), Col("u", Int64), Col("f", Float64), Col("s", String)}

// tortureLayouts are the ways a configuration holds its rows: unsharded,
// in 4 shards by range, in 4 by hash.
var tortureLayouts = []string{"", "range", "hash"}

// tortureConfig is one DB's configuration.
type tortureConfig struct {
	name   string
	policy Policy
	shards int
	by     string // "range" or "hash" when sharded
	par    int    // Options.Parallelism
}

func newTortureConfig(p Policy, by string, par int) tortureConfig {
	c := tortureConfig{name: p.String(), policy: p, by: by, par: par}
	if by != "" {
		c.shards, c.name = 4, c.name+"/4-"+by
	}
	if par > 1 {
		c.name += "/par=2"
	}
	return c
}

var torturePolicies = []Policy{None, Static, Imprint, Adaptive}

// tortureConfigs is every subject: four policies in every layout, every
// other one at Parallelism 2. The first is unsharded None.
func tortureConfigs() []tortureConfig {
	var out []tortureConfig
	for _, p := range torturePolicies {
		for _, by := range tortureLayouts {
			out = append(out, newTortureConfig(p, by, 1+len(out)%2))
		}
	}
	return out
}

// tortureDB is one DB holding table t.
type tortureDB struct {
	cfg  tortureConfig
	db   *DB
	tab  *Table
	dir  string // WAL directory, "" when not durable
	base []byte // the snapshot t was loaded from; nil: created empty
	// loose marks a DB that returns rows in shard order, not row order: a
	// sharded one, or one loaded from a sharded table's snapshot.
	loose bool
}

// openTorture opens a DB for cfg holding table t — empty, or loaded from
// base — and, when dir is set, recovers that WAL directory into it. skip
// enables skipping on every column before recovery, so the recovered rows
// reach the skipper through the append path.
func openTorture(t *testing.T, cfg tortureConfig, dir string, base []byte, skip bool) *tortureDB {
	t.Helper()
	o := Options{Policy: cfg.policy, ZoneSize: 32, Parallelism: cfg.par,
		Shards: cfg.shards, ShardKey: "k", ShardBy: cfg.by}
	if cfg.policy == Adaptive {
		o.ZoneSize, o.MinZoneRows = 64, 8
	}
	if dir != "" {
		o.Durability = Durability{Dir: dir, GroupWindow: -1, DisableFsync: true}
	}
	d := &tortureDB{cfg: cfg, db: Open(o), dir: dir, base: base, loose: cfg.shards > 0}
	t.Cleanup(func() { d.db.Close() })
	var err error
	if base == nil {
		d.tab, err = d.db.CreateTable("t", tortureCols...)
	} else {
		d.tab, err = d.db.LoadTable(bytes.NewReader(base))
	}
	if err == nil && skip {
		err = d.tab.EnableSkipping()
	}
	if err == nil && dir != "" {
		_, err = d.db.Recover()
	}
	if err != nil {
		t.Fatalf("%s: open: %v", cfg.name, err)
	}
	return d
}

// model is the table's rows in row order, which every subject holds, and
// the subjects.
type model struct {
	rows     [][]Value
	subjects []*tortureDB
	batch    int // queries in a lifecycle step's batch
}

// tortureGen generates the table's rows and the queries over them, from
// one stream of draws.
type tortureGen struct {
	rng  *rand.Rand
	rows int  // rows generated so far
	open bool // s's dictionary is open, so only point predicates on s plan
}

// newTortureGen draws from plan, then from seed (planSource).
func newTortureGen(seed int64, plan []byte) *tortureGen {
	return &tortureGen{rng: rand.New(&planSource{plan, rand.NewSource(seed)})}
}

// planSource is a rand.Source that takes its draws from plan, a byte a
// draw, and from the embedded seeded source once plan runs out; with an
// empty plan its stream is the seeded one. Byte b draws the Int63 every
// byte of which is b, shifted right by one: 0 makes every Intn choice
// its first and every Float64 0, and as b grows the bits Intn masks and
// reduces and the fraction Float64 takes all vary.
type planSource struct {
	plan []byte
	rand.Source
}

func (s *planSource) Int63() int64 {
	if len(s.plan) == 0 {
		return s.Source.Int63()
	}
	b := s.plan[0]
	s.plan = s.plan[1:]
	return int64(uint64(b) * 0x0101010101010101 >> 1)
}

// row generates the next row: k clustered in bands of 50 rows with NULLs,
// u uniform (past 2^32 when wide), f following k with NULLs and edge
// values, s a word per band with NULLs; the bands take the words out of
// order, so an open dictionary's codes do not order its values.
func (g *tortureGen) row(wide bool) []Value {
	band := int64(g.rows / 50)
	g.rows++
	k := band*100 + g.rng.Int63n(120)
	u := g.rng.Int63n(1_000_000)
	if wide {
		u = 1<<32 + g.rng.Int63n(1000)
	}
	f := FloatValue(float64(k)/8 + g.rng.Float64()*4)
	switch g.rng.Intn(12) {
	case 0:
		f = NullValue(Float64)
	case 1:
		f = FloatValue(g.edge())
	}
	s := StringValue(tortureWords[(3*int(band)+g.rng.Intn(2))%len(tortureWords)])
	if g.rng.Intn(40) == 0 {
		s = NullValue(String)
	}
	kv := IntValue(k)
	if g.rng.Intn(30) == 0 {
		kv = NullValue(Int64)
	}
	return []Value{kv, IntValue(u), f, s}
}

// edge draws one of f's values outside its bands, whose float codes lie
// far from theirs: a zero, a ±1e300 magnitude or a negative.
func (g *tortureGen) edge() float64 {
	switch g.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return float64(g.rng.Intn(5)-2) * 1e300
	}
	return -2.5 * float64(1+g.rng.Intn(80))
}

// batch generates n rows; from row wideAt on (when 0 <= wideAt < n) u is
// past 2^32, which escalates the narrow column mid-batch.
func (g *tortureGen) batch(n, wideAt int) [][]Value {
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = g.row(wideAt >= 0 && i >= wideAt)
	}
	return rows
}

// kMax bounds the shard key of every row generated so far.
func (g *tortureGen) kMax() int64 { return int64(g.rows/50)*100 + 120 }

func (g *tortureGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// scale is the width of the range column col's values span.
func (g *tortureGen) scale(col int) float64 {
	return [...]float64{float64(g.kMax()), 1_000_000, float64(g.kMax()) / 8, 0}[col]
}

// literal draws a value of column col's type near its rows' values.
func (g *tortureGen) literal(col int) Value {
	x := g.rng.Float64() * g.scale(col)
	switch col {
	case 0:
		return IntValue(int64(x))
	case 1:
		if g.rng.Intn(5) == 0 {
			return IntValue(1<<32 + g.rng.Int63n(1000))
		}
		return IntValue(int64(x))
	case 2:
		if g.rng.Intn(6) == 0 {
			return FloatValue(g.edge())
		}
		return FloatValue(math.Round(x*100) / 100)
	}
	return StringValue(tortureWords[g.rng.Intn(len(tortureWords))])
}

// span draws two literals of column col, the second at or above the
// first.
func (g *tortureGen) span(col int) (lo, hi Value) {
	lo, w := g.literal(col), g.rng.Float64()*g.scale(col)/4
	switch col {
	case 0, 1:
		return lo, IntValue(lo.Int() + int64(w))
	case 2:
		return lo, FloatValue(math.Round((lo.Float()+w)*100) / 100)
	}
	if hi = g.literal(col); hi.Str() < lo.Str() {
		return hi, lo
	}
	return lo, hi
}

// tpred is one generated predicate on column col: op is IS NULL, IS NOT
// NULL, BETWEEN, IN, a comparison, or OR over sub.
type tpred struct {
	col  int
	op   string
	args []Value
	sub  []tpred
}

// pred generates one predicate on col: IS [NOT] NULL, BETWEEN, a
// comparison, =, IN, or a same-column OR.
func (g *tortureGen) pred(col int) tpred {
	lo, hi := g.span(col)
	if col == 3 && g.open {
		if op := g.pick("=", "<>"); g.rng.Intn(3) > 0 {
			return tpred{col: col, op: op, args: []Value{lo}}
		}
		return tpred{col: col, op: "IN", args: []Value{lo, hi}}
	}
	switch g.rng.Intn(8) {
	case 0:
		return tpred{col: col, op: g.pick("IS NULL", "IS NOT NULL")}
	case 1, 2:
		return tpred{col: col, op: "BETWEEN", args: []Value{lo, hi}}
	case 3:
		return tpred{col: col, op: g.pick("<", "<=", ">", ">=", "<>"), args: []Value{lo}}
	case 4:
		return tpred{col: col, op: "=", args: []Value{lo}}
	case 5:
		return tpred{col: col, op: "IN", args: []Value{lo, hi}}
	case 6:
		return tpred{col: col, op: "OR", sub: []tpred{{col: col, op: "<", args: []Value{lo}}, {col: col, op: ">", args: []Value{hi}}}}
	}
	return tpred{col: col, op: "OR", sub: []tpred{{col: col, op: "BETWEEN", args: []Value{lo, hi}},
		{col: col, op: "=", args: []Value{g.literal(col)}}}}
}

// where generates a conjunction over 0–3 distinct columns.
func (g *tortureGen) where() []tpred {
	var preds []tpred
	for _, col := range g.rng.Perm(4)[:g.rng.Intn(4)] {
		preds = append(preds, g.pred(col))
	}
	return preds
}

// tagg is one generated aggregate: fn over column col, -1 for COUNT(*).
type tagg struct {
	fn  string
	col int
}

// query is a generated statement: the description the evaluator runs,
// and the SQL rendered from it.
type query struct {
	sql   string
	where []tpred
	aggs  []tagg // the aggregates; a grouping's follow its key
	group int    // the GROUP BY column, -1 if none
	sel   []int  // the projected columns
	star  bool   // SELECT * for all four
	order int    // index into sel of the ORDER BY column, -1 if none
	desc  bool
	limit int // 0: none
}

// countQuery is SELECT COUNT(*) over where.
func countQuery(where []tpred) query {
	q := query{where: where, aggs: []tagg{{"COUNT", -1}}, group: -1, order: -1}
	q.sql = q.render()
	return q
}

// query generates one statement: a count, aggregates, a grouping, or a
// projection with or without ORDER BY [DESC] and LIMIT.
func (g *tortureGen) query() query {
	agg := func() tagg {
		switch g.rng.Intn(5) {
		case 0:
			return tagg{"COUNT", g.rng.Intn(5) - 1}
		case 1, 2:
			return tagg{g.pick("SUM", "AVG"), g.rng.Intn(3)}
		}
		return tagg{g.pick("MIN", "MAX"), g.rng.Intn(4)}
	}
	q := countQuery(g.where())
	switch g.rng.Intn(4) {
	case 0:
		return q
	case 1:
		q.aggs = []tagg{agg()}
		for g.rng.Intn(2) == 0 && len(q.aggs) < 4 {
			q.aggs = append(q.aggs, agg())
		}
	case 2:
		q.group, q.aggs = [...]int{3, 0, 2}[g.rng.Intn(3)], append(q.aggs, agg())
		if g.rng.Intn(2) == 0 {
			q.limit = 1 + g.rng.Intn(10)
		}
	default:
		q.aggs, q.sel = nil, g.rng.Perm(4)[:1+g.rng.Intn(4)]
		if g.rng.Intn(2) == 0 {
			q.order, q.desc = g.rng.Intn(len(q.sel)), g.rng.Intn(2) == 0
		} else if len(q.sel) == 4 && g.rng.Intn(2) == 0 {
			q.sel, q.star = []int{0, 1, 2, 3}, true
		}
		if g.rng.Intn(3) > 0 {
			q.limit = 1 + g.rng.Intn(40)
		}
	}
	q.sql = q.render()
	return q
}

func (g *tortureGen) queries(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = g.query()
	}
	return qs
}

// name is column col's name, and * for -1.
func name(col int) string {
	if col < 0 {
		return "*"
	}
	return tortureCols[col].Name
}

// render writes the statement q describes.
func (q *query) render() string {
	var items, preds []string
	if q.group >= 0 {
		items = append(items, name(q.group))
	}
	for _, a := range q.aggs {
		items = append(items, a.fn+"("+name(a.col)+")")
	}
	for _, c := range q.sel {
		items = append(items, name(c))
	}
	if q.star {
		items = []string{"*"}
	}
	for _, p := range q.where {
		preds = append(preds, p.render())
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
	if preds != nil {
		sql += " WHERE " + strings.Join(preds, " AND ")
	}
	if q.group >= 0 {
		sql += " GROUP BY " + name(q.group)
	}
	if q.order >= 0 {
		sql += " ORDER BY " + name(q.sel[q.order])
		if q.desc {
			sql += " DESC"
		}
	}
	if q.limit > 0 {
		sql += " LIMIT " + strconv.Itoa(q.limit)
	}
	return sql
}

func (p tpred) render() string {
	col := name(p.col)
	lits := make([]string, len(p.args))
	for i, v := range p.args {
		switch v.Type() {
		case Int64:
			lits[i] = strconv.FormatInt(v.Int(), 10)
		case Float64:
			lits[i] = strconv.FormatFloat(v.Float(), 'g', -1, 64) // parses back to the same float
		default:
			lits[i] = "'" + v.Str() + "'"
		}
	}
	switch p.op {
	case "IS NULL", "IS NOT NULL":
		return col + " " + p.op
	case "BETWEEN":
		return col + " BETWEEN " + lits[0] + " AND " + lits[1]
	case "IN":
		return col + " IN (" + strings.Join(lits, ", ") + ")"
	case "OR":
		return "(" + p.sub[0].render() + " OR " + p.sub[1].render() + ")"
	}
	return col + " " + p.op + " " + lits[0]
}

// The evaluator. Its semantics are the engine's documented ones: a
// comparison with NULL is false; COUNT(col) counts non-NULL values; SUM,
// MIN, MAX and AVG are NULL on no input; AVG is DOUBLE, and SUM, MIN and
// MAX follow the column's type; groups come in key order with the NULL
// group last; ORDER BY puts NULLs last in both directions and breaks ties
// by the earlier row; an unordered projection returns rows in row order,
// and its LIMIT keeps the first matches.

// cmpValues orders two non-NULL values of one type. The comparisons take
// pointers: a Value is six words.
func cmpValues(a, b *Value) int {
	switch a.Type() {
	case Int64:
		return cmp.Compare(a.Int(), b.Int())
	case Float64:
		return cmp.Compare(a.Float(), b.Float())
	}
	return strings.Compare(a.Str(), b.Str())
}

// cmpNullsLast orders two values of one type, NULL after every other.
func cmpNullsLast(a, b *Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	}
	return cmpValues(a, b)
}

func sameValue(a, b Value) bool { return a.Type() == b.Type() && cmpNullsLast(&a, &b) == 0 }

// appendKey appends to b an encoding of r's values that tells rows of
// one shape apart.
func appendKey(b []byte, r []Value) []byte {
	for _, v := range r {
		switch {
		case v.IsNull():
			b = append(b, 'n')
		case v.Type() == String:
			b = append(strconv.AppendInt(append(b, 's'), int64(len(v.Str())), 10), v.Str()...)
		case v.Type() == Float64:
			b = binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v.Float()))
		default:
			b = binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v.Int()))
		}
	}
	return b
}

func (p tpred) holds(r []Value) bool {
	v := &r[p.col]
	switch p.op {
	case "IS NULL":
		return v.IsNull()
	case "IS NOT NULL":
		return !v.IsNull()
	case "OR":
		return p.sub[0].holds(r) || p.sub[1].holds(r)
	}
	if v.IsNull() {
		return false
	}
	c := cmpValues(v, &p.args[0])
	switch p.op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "BETWEEN":
		return c >= 0 && cmpValues(v, &p.args[1]) <= 0
	}
	return slices.ContainsFunc(p.args, func(a Value) bool { return cmpValues(v, &a) == 0 }) // IN
}

// cell is an aggregate's value. A float SUM or AVG carries the slack by
// which a sum of its inputs in another order may differ: 1e-9 of their
// magnitude.
type cell struct {
	v     Value
	slack float64
}

func (c cell) String() string { return c.v.String() }

// aggregate computes a over the rows match picks.
func aggregate(a tagg, rows [][]Value, match []int) cell {
	if a.col < 0 {
		return cell{v: IntValue(int64(len(match)))}
	}
	var vals []Value
	var sumI int64
	var sum, mag float64
	for _, i := range match {
		switch v := rows[i][a.col]; {
		case v.IsNull():
			continue
		case v.Type() == Int64:
			sumI += v.Int()
			sum, mag = float64(sumI), mag+math.Abs(float64(v.Int()))
		case v.Type() == Float64:
			sum, mag = sum+v.Float(), mag+math.Abs(v.Float())
		}
		vals = append(vals, rows[i][a.col])
	}
	n := float64(len(vals))
	switch {
	case a.fn == "COUNT":
		return cell{v: IntValue(int64(len(vals)))}
	case a.fn == "AVG" && n == 0:
		return cell{v: NullValue(Float64)}
	case n == 0:
		return cell{v: NullValue(tortureCols[a.col].Type)}
	case a.fn == "MIN":
		return cell{v: slices.MinFunc(vals, func(x, y Value) int { return cmpValues(&x, &y) })}
	case a.fn == "MAX":
		return cell{v: slices.MaxFunc(vals, func(x, y Value) int { return cmpValues(&x, &y) })}
	case a.fn == "AVG":
		return cell{FloatValue(sum / n), 1e-9 * max(1, mag/n)}
	case tortureCols[a.col].Type == Float64:
		return cell{FloatValue(sum), 1e-9 * max(1, mag)}
	}
	return cell{v: IntValue(sumI)}
}

func aggregates(aggs []tagg, rows [][]Value, match []int) []cell {
	out := make([]cell, len(aggs))
	for i, a := range aggs {
		out[i] = aggregate(a, rows, match)
	}
	return out
}

// answer is what a query must return.
type answer struct {
	count  int
	aggs   []cell
	groups [][]cell  // a grouping's rows
	rows   [][]Value // a projection's rows
	all    [][]Value // a projection's every match, before its LIMIT
	// slot numbers all's distinct rows by key, and counts holds each
	// one's multiplicity; both are built on first use.
	slot   map[string]int
	counts []int
}

// stray returns the first of rows that all does not hold, counting
// multiplicity, or nil.
func (a *answer) stray(rows [][]Value) []Value {
	if a.slot == nil {
		a.slot = map[string]int{}
		for _, r := range a.all {
			k := string(appendKey(nil, r))
			if _, ok := a.slot[k]; !ok {
				a.slot[k] = len(a.counts)
				a.counts = append(a.counts, 0)
			}
			a.counts[a.slot[k]]++
		}
	}
	left, key := slices.Clone(a.counts), []byte(nil)
	for _, r := range rows {
		key = appendKey(key[:0], r)
		i, ok := a.slot[string(key)]
		if !ok || left[i] == 0 {
			return r
		}
		left[i]--
	}
	return nil
}

// eval computes q's answer over rows, the table's rows in row order.
func eval(rows [][]Value, q *query) *answer {
	var match []int // the matching rows' numbers
next:
	for i, r := range rows {
		for _, p := range q.where {
			if !p.holds(r) {
				continue next
			}
		}
		match = append(match, i)
	}
	// sortBy orders the matches by column c, NULLs last, ties by the
	// earlier row.
	sortBy := func(c int, desc bool) {
		slices.SortFunc(match, func(x, y int) int {
			a, b := &rows[x][c], &rows[y][c]
			if desc && !a.IsNull() && !b.IsNull() {
				a, b = b, a
			}
			return cmp.Or(cmpNullsLast(a, b), cmp.Compare(x, y))
		})
	}
	a := &answer{count: len(match)}
	switch c := q.group; {
	case c >= 0:
		sortBy(c, false)
		for len(match) > 0 && (q.limit == 0 || len(a.groups) < q.limit) {
			n, key := 1, rows[match[0]][c]
			for n < len(match) && sameValue(rows[match[n]][c], key) {
				n++
			}
			a.groups = append(a.groups, append([]cell{{v: key}}, aggregates(q.aggs, rows, match[:n])...))
			match = match[n:]
		}
	case q.sel != nil:
		if q.order >= 0 {
			sortBy(q.sel[q.order], q.desc)
		}
		slab := make([]Value, len(match)*len(q.sel))
		for i, m := range match {
			row := slab[i*len(q.sel) : (i+1)*len(q.sel)]
			for j, c := range q.sel {
				row[j] = rows[m][c]
			}
			a.all = append(a.all, row)
		}
		a.rows = a.all
		if q.limit > 0 {
			a.rows = a.all[:min(q.limit, len(a.all))]
		}
		a.count = len(a.rows)
	default:
		a.aggs = aggregates(q.aggs, rows, match)
	}
	return a
}

// near holds got to want, a float within want's slack.
func near(got Value, want cell) bool {
	if want.slack > 0 && got.Type() == Float64 && !got.IsNull() && !want.v.IsNull() {
		return math.Abs(got.Float()-want.v.Float()) <= want.slack
	}
	return sameValue(got, want.v)
}

// diffResult holds got to want. An unsharded subject must match exactly:
// row order, tie order and the rows a LIMIT keeps. A sharded one returns
// rows in shard order: its unordered rows are held as a multiset, rows
// under a LIMIT as a subset of the full match set, and ordered rows by
// their order keys. Column names and types come from the planner, not
// from skipping; they are held to shape's.
func diffResult(q *query, want *answer, got, shape *Result, exact bool) string {
	if !slices.Equal(got.Columns, shape.Columns) || !slices.Equal(got.Types, shape.Types) {
		return fmt.Sprintf("columns %v %v, the first subject's %v %v", got.Columns, got.Types, shape.Columns, shape.Types)
	}
	if got.Count != want.count || len(got.Aggs) != len(want.aggs) || len(got.Rows) != len(want.rows)+len(want.groups) {
		return fmt.Sprintf("count %d, %d aggs, %d rows; want %d, %d aggs, %d rows", got.Count, len(got.Aggs),
			len(got.Rows), want.count, len(want.aggs), len(want.rows)+len(want.groups))
	}
	if !slices.EqualFunc(got.Aggs, want.aggs, near) {
		return fmt.Sprintf("aggregates %v, want %v", got.Aggs, want.aggs)
	}
	for i, w := range want.groups {
		if !slices.EqualFunc(got.Rows[i], w, near) {
			return fmt.Sprintf("group %d = %v, want %v", i, got.Rows[i], w)
		}
	}
	for i, w := range want.rows {
		if g := got.Rows[i]; exact && !slices.EqualFunc(g, w, sameValue) || q.order >= 0 && !sameValue(g[q.order], w[q.order]) {
			return fmt.Sprintf("row %d = %v, want %v", i, g, w)
		}
	}
	if exact || q.sel == nil {
		return ""
	}
	if r := want.stray(got.Rows); r != nil {
		return fmt.Sprintf("row %v is not in the match set", r)
	}
	return ""
}

// compare runs qs on every subject and holds each answer to the
// evaluator's over the model's rows, and its columns to the first
// subject's. A query with a WHERE and no LIMIT is held to its cost too:
// every row it matches was scanned or covered, no covered row fails the
// predicate, and Policy None skips nothing. On an unsharded subject, each
// predicate column whose skipper took part accounts for every row once:
// its rows skipped and its candidate rows sum to the table's rows.
func compare(t *testing.T, step string, m *model, qs []query) {
	t.Helper()
	for _, q := range qs {
		var shape *Result
		want := eval(m.rows, &q)
		for _, s := range m.subjects {
			got, err := s.db.Exec(q.sql)
			if err != nil {
				t.Fatalf("%s, %s: %q: %v", step, s.cfg.name, q.sql, err)
			}
			if shape == nil {
				shape = got
			}
			if d := diffResult(&q, want, got, shape, !s.loose); d != "" {
				t.Fatalf("%s, %s: %q: %s", step, s.cfg.name, q.sql, d)
			}
			if st := got.Stats; q.where != nil && q.limit == 0 &&
				(want.count > st.RowsScanned+st.RowsCovered || st.RowsCovered > want.count ||
					s.cfg.policy == None && st.RowsSkipped != 0) {
				t.Fatalf("%s, %s: %q: %d rows match, but it scanned %d, covered %d and skipped %d",
					step, s.cfg.name, q.sql, want.count, st.RowsScanned, st.RowsCovered, st.RowsSkipped)
			}
			if s.cfg.shards > 0 {
				continue // a merged trace sums only the shards it scanned
			}
			for _, p := range got.Trace.Predicates {
				if p.SkippersUsed == 1 && p.RowsSkipped+p.CandidateRows != got.Trace.RowsTotal {
					t.Fatalf("%s, %s: %q: column %s skipped %d and kept %d candidate rows of %d",
						step, s.cfg.name, q.sql, p.Column, p.RowsSkipped, p.CandidateRows, got.Trace.RowsTotal)
				}
			}
		}
	}
}

// checkStep compares qs, then runs VerifySkipping on every subject and
// holds its row count to the model's.
func checkStep(t *testing.T, step string, m *model, qs []query) {
	t.Helper()
	compare(t, step, m, qs)
	for _, s := range m.subjects {
		if err := s.tab.VerifySkipping(); err != nil {
			t.Fatalf("%s, %s: VerifySkipping: %v", step, s.cfg.name, err)
		}
		if got := s.tab.NumRows(); got != len(m.rows) {
			t.Fatalf("%s, %s: %d rows, the model has %d", step, s.cfg.name, got, len(m.rows))
		}
	}
}

// appendAll appends rows, in batches of the given sizes, to the model and
// every subject.
func appendAll(t *testing.T, step string, m *model, rows [][]Value, sizes ...int) {
	t.Helper()
	m.rows = append(m.rows, rows...)
	for _, d := range m.subjects {
		rest := rows
		for _, n := range sizes {
			if err := d.tab.AppendBatch(rest[:n]); err != nil {
				t.Fatalf("%s, %s: append: %v", step, d.cfg.name, err)
			}
			rest = rest[n:]
		}
	}
}

// newModel opens a subject for each of cfgs, loads the base rows into
// every one, compares the first unskipped generated queries while no
// column has a skipper and every dictionary is open, then enables
// skipping. durable subjects log to a WAL directory of their own. A
// lifecycle step's batch is tortureBatch queries.
func newModel(t *testing.T, g *tortureGen, cfgs []tortureConfig, base [][]Value, durable bool, unskipped int) *model {
	t.Helper()
	m := &model{batch: tortureBatch}
	for _, cfg := range cfgs {
		dir := ""
		if durable {
			dir = t.TempDir()
		}
		m.subjects = append(m.subjects, openTorture(t, cfg, dir, nil, false))
	}
	appendAll(t, "load", m, base, len(base))
	g.open = true
	compare(t, "before skipping", m, g.queries(unskipped))
	g.open = false
	for _, d := range m.subjects {
		if err := d.tab.EnableSkipping(); err != nil {
			t.Fatalf("%s: EnableSkipping: %v", d.cfg.name, err)
		}
	}
	return m
}

// forSeeds runs fn as subtests seed=1..tortureSeeds.
func forSeeds(t *testing.T, fn func(t *testing.T, seed int, g *tortureGen)) {
	for seed := 1; seed <= tortureSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fn(t, seed, newTortureGen(int64(seed), nil))
		})
	}
}

// TestTorture_Eval_GeneratedQueries holds every subject to the evaluator
// over rounds of generated queries on a freshly loaded table, the first
// before skipping is enabled: the adaptive maps split, merge and switch
// off as the later rounds teach them.
func TestTorture_Eval_GeneratedQueries(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		m := newModel(t, g, tortureConfigs(), g.batch(tortureBaseRows, -1), false, tortureBatch)
		for round := 2; round <= tortureRounds; round++ {
			checkStep(t, fmt.Sprintf("seed %d round %d", seed, round), m, g.queries(tortureBatch))
		}
	})
}

// tortureRefusals are statements every configuration must refuse with the
// first subject's error.
var tortureRefusals = []string{
	"SELECT COUNT(*) FROM t WHERE nope < %d",
	"SELECT nope FROM t WHERE k < %d",
	"SELECT COUNT(*) FROM nope WHERE k < %d",
	"SELECT COUNT(*) FROM t WHERE k = 'w%d'",
	"SELECT COUNT(*) FROM t WHERE s < %d",
	"SELECT COUNT(*) FROM t WHERE f = 'x%d'",
	"SELECT SUM(s) FROM t WHERE k > %d",
	"SELECT AVG(s) FROM t WHERE u > %d",
	"SELECT u, COUNT(*) FROM t WHERE k > %d GROUP BY s",
	"SELECT * FROM t WHERE k > %d GROUP BY s",
	"SELECT COUNT(*) FROM t WHERE (k < %d OR u > 5)",
	"SELECT COUNT(*) FROM t WHERE (f IS NULL OR f > %d)",
	"SELECT COUNT(*) FROM t WHERE k BETWEEN %d",
	"SELECT COUNT(*) t WHERE k < %d",
	"SELECT k FROM t WHERE k < %d ORDER BY nope",
	"SELECT k FROM t WHERE k < %d LIMIT -1",
}

// TestTorture_Error_Refusals holds every configuration to the first
// subject's refusals of statements, and every DB to refusing appends — a
// batch with a bad row or a word the sealed dictionary lacks, a short row
// — after which the answers still agree: a refused append leaves every
// table as it was.
func TestTorture_Error_Refusals(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		m := newModel(t, g, tortureConfigs(), g.batch(tortureBaseRows, -1), false, 0)
		step := fmt.Sprintf("seed %d", seed)
		for _, i := range g.rng.Perm(len(tortureRefusals)) {
			sql := fmt.Sprintf(tortureRefusals[i], g.rng.Int63n(g.kMax()))
			var want error
			for _, s := range m.subjects {
				_, err := s.db.Exec(sql)
				if want == nil {
					want = err
				}
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("%s, %s: %q: error %v, the first subject's %v", step, s.cfg.name, sql, err, want)
				}
			}
		}
		bad, unsealed := g.batch(1+g.rng.Intn(200), -1), g.batch(1+g.rng.Intn(200), -1)
		bad[g.rng.Intn(len(bad))][g.rng.Intn(3)] = StringValue("x")
		unsealed[g.rng.Intn(len(unsealed))][3] = StringValue("yew")
		for _, d := range m.subjects {
			for i, err := range []error{d.tab.AppendBatch(bad), d.tab.AppendBatch(unsealed), d.tab.Append(1, 2, 3.5)} {
				if err == nil {
					t.Fatalf("%s, %s: refusable append %d was accepted", step, d.cfg.name, i)
				}
			}
		}
		checkStep(t, step+", after the refused appends", m, g.queries(tortureBatch))
	})
}

// lifecycleSteps are the Lifecycle family's steps, each applied to the
// model. Each seed runs every step once, in its own order, then more
// chosen at random.
var lifecycleSteps = []struct {
	name string
	run  func(t *testing.T, step string, g *tortureGen, m *model)
}{
	{"refine", func(t *testing.T, step string, g *tortureGen, m *model) {
		compare(t, step, m, g.queries(m.batch))
	}},
	{"append a staged chunk", func(t *testing.T, step string, g *tortureGen, m *model) {
		// Two batches with no query between them: the second lands in a
		// chunk beside the first, and the next reader consolidates both.
		a, b := 1+g.rng.Intn(300), 1+g.rng.Intn(300)
		appendAll(t, step, m, g.batch(a+b, -1), a, b)
	}},
	{"append escalating u past 2^32", func(t *testing.T, step string, g *tortureGen, m *model) {
		n := 2 + g.rng.Intn(200)
		appendAll(t, step, m, g.batch(n, 1+g.rng.Intn(n-1)), n)
	}},
	{"append single rows", func(t *testing.T, step string, g *tortureGen, m *model) {
		// One-row batches fill the tail slot's spare room and close it.
		for range 1 + g.rng.Intn(40) {
			appendAll(t, step, m, g.batch(1, -1), 1)
		}
	}},
	{"save and cold load", func(t *testing.T, step string, g *tortureGen, m *model) {
		replace(t, step, m, func(s *tortureDB) *tortureDB {
			return openTorture(t, s.cfg, t.TempDir(), saved(t, step, s), true)
		})
	}},
	{"load a snapshot into another layout", func(t *testing.T, step string, g *tortureGen, m *model) {
		// Each subject's snapshot loads into a DB of the same policy in
		// another layout — unsharded, 4-range, 4-hash — which is checked
		// against the model, then closed. A snapshot of a sharded table
		// holds its rows in shard order, so a DB loaded from one is
		// loosely compared.
		shift := 1 + g.rng.Intn(2)
		moved := &model{rows: m.rows}
		for _, s := range m.subjects {
			cfg := newTortureConfig(s.cfg.policy, tortureLayouts[(slices.Index(tortureLayouts, s.cfg.by)+shift)%3], s.cfg.par)
			cfg.name += " loaded from " + s.cfg.name
			d := openTorture(t, cfg, "", saved(t, step, s), true)
			d.loose = d.loose || s.loose
			moved.subjects = append(moved.subjects, d)
		}
		checkStep(t, step, moved, g.queries(m.batch))
		for _, d := range moved.subjects {
			d.db.Close()
		}
	}},
	{"recover a copy of the WAL", func(t *testing.T, step string, g *tortureGen, m *model) {
		// The copy is what a kill -9 after the last acknowledged append
		// leaves; internal/crashtest keeps the real kill.
		replace(t, step, m, func(s *tortureDB) *tortureDB {
			dir := t.TempDir()
			files, err := os.ReadDir(s.dir)
			for i := 0; err == nil && i < len(files); i++ {
				var b []byte
				name := files[i].Name()
				if b, err = os.ReadFile(filepath.Join(s.dir, name)); err == nil {
					err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			return openTorture(t, s.cfg, dir, s.base, true)
		})
	}},
	{"drop a skipper and rebuild it", func(t *testing.T, step string, g *tortureGen, m *model) {
		// The flip corrupts an adaptive map's layout as the first query
		// teaches it; the second query's probe finds the corruption and
		// drops the skipper, and its answer must still be exact.
		lo, hi := g.span(0)
		q := countQuery([]tpred{{col: 0, op: "BETWEEN", args: []Value{lo, hi}}})
		for _, s := range m.subjects {
			restore := faultinject.Activate(faultinject.New(1).
				Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
			_, err := s.db.Exec(q.sql)
			restore()
			if err != nil {
				t.Fatalf("%s, %s: %q: %v", step, s.cfg.name, q.sql, err)
			}
		}
		compare(t, step, m, []query{q})
		for _, s := range m.subjects {
			if _, ok := s.tab.SkipperInfo()["k"]; s.cfg.shards == 0 && ok == (s.cfg.policy == Adaptive) {
				t.Fatalf("%s, %s: k's skipper listed %v after the flip", step, s.cfg.name, ok)
			}
		}
		for _, s := range m.subjects {
			if err := s.tab.EnableSkipping(); err != nil {
				t.Fatalf("%s, %s: EnableSkipping: %v", step, s.cfg.name, err)
			}
		}
	}},
}

// saved is s's table as SaveTable writes it.
func saved(t *testing.T, step string, s *tortureDB) []byte {
	var buf bytes.Buffer
	if err := s.db.SaveTable("t", &buf); err != nil {
		t.Fatalf("%s, %s: SaveTable: %v", step, s.cfg.name, err)
	}
	return buf.Bytes()
}

// replace swaps every subject for the DB open builds from it.
func replace(t *testing.T, step string, m *model, open func(*tortureDB) *tortureDB) {
	for i, s := range m.subjects {
		m.subjects[i] = open(s)
		if err := s.db.Close(); err != nil {
			t.Fatalf("%s, %s: close: %v", step, s.cfg.name, err)
		}
	}
}

// TestTorture_Lifecycle_Steps runs every lifecycle step on durable
// subjects, each followed by a batch of queries and VerifySkipping.
func TestTorture_Lifecycle_Steps(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		m := newModel(t, g, tortureConfigs(), g.batch(tortureBaseRows, -1), true, 0)
		order := g.rng.Perm(len(lifecycleSteps))
		for len(order) < tortureSteps {
			order = append(order, g.rng.Intn(len(lifecycleSteps)))
		}
		for i, s := range order {
			step := fmt.Sprintf("seed %d step %d (%s)", seed, i+1, lifecycleSteps[s].name)
			lifecycleSteps[s].run(t, step, g, m)
			checkStep(t, step, m, g.queries(tortureBatch))
		}
	})
}

// FuzzTorture runs one small lifecycle with every choice drawn from plan,
// then from seed (planSource), so the fuzzer mutates choices rather than
// SQL text, and its minimiser shrinks a failing plan to the fewest bytes
// that still fail. An execution holds the unsharded None subject and one
// or two subjects the plan picks to the evaluator, on durable DBs: a base
// of 400 to tortureBaseRows rows, a query before skipping, then one to
// three lifecycle steps, each drawing a query at most and followed by one
// and VerifySkipping, so seven queries at most. The first eight rows of
// every 50-row band of the base hold the eight words: EnableSkipping
// seals each shard's dictionary, which then refuses a word it lacks.
func FuzzTorture(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		g := newTortureGen(seed, plan)
		cfgs := []tortureConfig{newTortureConfig(None, "", 1)}
		for range 1 + g.rng.Intn(2) {
			p, by := torturePolicies[g.rng.Intn(len(torturePolicies))], tortureLayouts[g.rng.Intn(len(tortureLayouts))]
			cfgs = append(cfgs, newTortureConfig(p, by, 1+g.rng.Intn(2)))
		}
		base := g.batch(400+g.rng.Intn(tortureBaseRows-399), -1)
		for i := range base {
			if i%50 < len(tortureWords) {
				base[i][3] = StringValue(tortureWords[i%50])
			}
		}
		m := newModel(t, g, cfgs, base, true, 1)
		m.batch = 1
		for i := range 1 + g.rng.Intn(3) {
			s := g.rng.Intn(len(lifecycleSteps))
			step := fmt.Sprintf("step %d (%s)", i+1, lifecycleSteps[s].name)
			lifecycleSteps[s].run(t, step, g, m)
			checkStep(t, step, m, g.queries(m.batch))
		}
	})
}

// TestTorturePlanThenSeed: the generator takes its draws from a plan,
// where a zero byte is the first choice, then from the seeded stream; so
// FuzzTorture(N, nil) draws what forSeeds' seed=N does.
func TestTorturePlanThenSeed(t *testing.T) {
	for _, plan := range [][]byte{nil, {0, 0}} {
		g, seeded := newTortureGen(2, plan), rand.New(rand.NewSource(2))
		if plan != nil && (g.rng.Intn(7) != 0 || g.rng.Float64() != 0) {
			t.Fatalf("plan %v: a zero byte drew other than the first choice", plan)
		}
		for i := range 1000 {
			if got, want := g.rng.Int63(), seeded.Int63(); got != want {
				t.Fatalf("plan %v: seeded draw %d = %#x, want %#x", plan, i, got, want)
			}
		}
	}
}

// TestTorture_Concurrency_AppendUnderReaders runs, on each configuration,
// one writer appending while readers count. A count under the writer lies
// between the model's before and after it; once the writer stops, a final
// batch is compared.
func TestTorture_Concurrency_AppendUnderReaders(t *testing.T) {
	const readers, reads, batches, size = 3, 12, 8, 50
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		m := newModel(t, g, tortureConfigs(), g.batch(tortureBaseRows, -1), false, 0)
		counts := make([]query, readers*reads)
		for i := range counts {
			counts[i] = countQuery(g.where())
		}
		rows := g.batch(batches*size, batches*size-20)
		before, after := make([]int64, len(counts)), make([]int64, len(counts))
		for i := range counts {
			before[i] = int64(eval(m.rows, &counts[i]).count)
			after[i] = before[i] + int64(eval(rows, &counts[i]).count)
		}
		for _, s := range m.subjects {
			var wg sync.WaitGroup
			wg.Add(1 + readers)
			go func() {
				defer wg.Done()
				for b := range batches {
					if err := s.tab.AppendBatch(rows[b*size : (b+1)*size]); err != nil {
						t.Errorf("seed %d, %s: append: %v", seed, s.cfg.name, err)
						return
					}
				}
			}()
			for r := range readers {
				go func() {
					defer wg.Done()
					for i := r * reads; i < (r+1)*reads; i++ {
						res, err := s.db.Exec(counts[i].sql)
						if err == nil && (res.Aggs[0].Int() < before[i] || res.Aggs[0].Int() > after[i]) {
							err = fmt.Errorf("counts %v under the writer, outside [%d, %d]", res.Aggs[0], before[i], after[i])
						}
						if err != nil {
							t.Errorf("seed %d, %s: %q: %v", seed, s.cfg.name, counts[i].sql, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		}
		m.rows = append(m.rows, rows...)
		checkStep(t, fmt.Sprintf("seed %d, after the writer", seed), m, g.queries(tortureBatch))
	})
}
