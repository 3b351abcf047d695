package adskip

// The torture oracle: skipping never changes an answer. Each family runs
// the same seeded SQL on a reference — an unsharded Policy None DB, whose
// every skipper is a NoSkipper — and on static, imprint and adaptive
// subjects, each unsharded, in 4 shards by range and in 4 by hash, and
// holds every subject's answers and refusals to the reference's: Eval on
// fresh tables, Error on statements and mutations all must refuse,
// Lifecycle after each step of a table's life, Concurrency under a
// writer. Subtests are named seed=N, and a failure names the seed, the
// step, the configuration and the SQL. An execution defect every policy
// shares is not this oracle's to catch: internal/engine's referenceEval
// and top-L oracles are.

import (
	"bytes"
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

// tortureConfig is one DB's configuration.
type tortureConfig struct {
	name   string
	policy Policy
	shards int
	by     string // "range" or "hash" when sharded
	par    int    // Options.Parallelism
}

// tortureConfigs is every subject: three policies, each unsharded, in 4
// shards by range and in 4 by hash, every other one at Parallelism 2.
func tortureConfigs() []tortureConfig {
	var out []tortureConfig
	for _, p := range []Policy{Static, Imprint, Adaptive} {
		for _, by := range []string{"", "range", "hash"} {
			c := tortureConfig{name: p.String(), policy: p, by: by, par: 1 + len(out)%2}
			if by != "" {
				c.shards, c.name = 4, c.name+"/4-"+by
			}
			if c.par > 1 {
				c.name += "/par=2"
			}
			out = append(out, c)
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
}

// openTorture opens a DB for cfg holding table t — empty, or loaded from
// base — and, when dir is set, recovers that WAL directory into it. skip
// enables skipping on every column: on a loaded table before recovery, so
// the recovered rows reach the skipper through the append path; on an
// empty one after, since a sealed dictionary refuses the words the log
// holds.
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
	d := &tortureDB{cfg: cfg, db: Open(o), dir: dir, base: base}
	t.Cleanup(func() { d.db.Close() })
	var err error
	if base == nil {
		d.tab, err = d.db.CreateTable("t", tortureCols...)
	} else if d.tab, err = d.db.LoadTable(bytes.NewReader(base)); err == nil && skip {
		err = d.tab.EnableSkipping()
	}
	if err == nil && dir != "" {
		_, err = d.db.Recover()
	}
	if err == nil && skip && base == nil {
		err = d.tab.EnableSkipping()
	}
	if err != nil {
		t.Fatalf("%s: open: %v", cfg.name, err)
	}
	return d
}

// lane is a reference and the subjects held to it. The sharded subjects
// have a lane of their own because they refuse the updates the unsharded
// ones apply.
type lane struct {
	ref      *tortureDB
	subjects []*tortureDB
}

func (l *lane) all() []*tortureDB { return append([]*tortureDB{l.ref}, l.subjects...) }

// tortureGen generates the table's rows and the queries over them, from
// one seed.
type tortureGen struct {
	rng  *rand.Rand
	rows int // rows generated so far
}

// row generates the next row: k clustered in bands of 50 rows, u uniform
// (past 2^32 when wide), f following k with NULLs, s a word per band.
func (g *tortureGen) row(wide bool) []Value {
	band := int64(g.rows / 50)
	g.rows++
	k := band*100 + g.rng.Int63n(120)
	u := g.rng.Int63n(1_000_000)
	if wide {
		u = 1<<32 + g.rng.Int63n(1000)
	}
	f := FloatValue(float64(k)/8 + g.rng.Float64()*4)
	if g.rng.Intn(12) == 0 {
		f = NullValue(Float64)
	}
	s := StringValue(tortureWords[(int(band)+g.rng.Intn(2))%len(tortureWords)])
	if g.rng.Intn(40) == 0 {
		s = NullValue(String)
	}
	return []Value{IntValue(k), IntValue(u), f, s}
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

// pred generates one predicate on col: IS [NOT] NULL, BETWEEN, a
// comparison, =, IN, or a same-column OR.
func (g *tortureGen) pred(col string) string {
	max := float64(g.kMax())
	lit := func(x float64) string { return strconv.FormatInt(int64(x), 10) }
	switch col {
	case "u":
		if g.rng.Intn(5) == 0 {
			return fmt.Sprintf("u > %d", 1<<32+g.rng.Int63n(1000))
		}
		max = 1_000_000
	case "f":
		max /= 8
		lit = func(x float64) string { return strconv.FormatFloat(x, 'f', 2, 64) }
	case "s":
		lit = func(float64) string { return "'" + tortureWords[g.rng.Intn(len(tortureWords))] + "'" }
	}
	lo := g.rng.Float64() * max
	a, b := lit(lo), lit(lo+g.rng.Float64()*max/4)
	switch g.rng.Intn(8) {
	case 0:
		return col + " IS " + g.pick("NULL", "NOT NULL")
	case 1, 2:
		return col + " BETWEEN " + a + " AND " + b
	case 3:
		return col + " " + g.pick("<", "<=", ">", ">=", "<>") + " " + a
	case 4:
		return col + " = " + a
	case 5:
		return fmt.Sprintf("%s IN (%s, %s)", col, a, b)
	case 6:
		return fmt.Sprintf("(%s < %s OR %s > %s)", col, a, col, b)
	default:
		return fmt.Sprintf("(%s BETWEEN %s AND %s OR %s = %s)", col, a, b, col, lit(g.rng.Float64()*max))
	}
}

// where generates a conjunction over 1–3 distinct columns, or none.
func (g *tortureGen) where() string {
	var preds []string
	for _, i := range g.rng.Perm(4)[:g.rng.Intn(4)] {
		preds = append(preds, g.pred(tortureCols[i].Name))
	}
	if len(preds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(preds, " AND ")
}

// query is one generated statement and what its comparison needs.
type query struct {
	sql   string
	full  string // sql without its LIMIT: the reference's full match set
	order int    // projected column the rows are ordered by, -1 if none
	group bool
}

// query generates one statement: a count, aggregates, a grouping, or a
// projection with or without ORDER BY [DESC] and LIMIT.
func (g *tortureGen) query() query {
	cols := []string{"k", "u", "f", "s"}
	agg := func() string {
		switch g.rng.Intn(5) {
		case 0:
			return "COUNT(" + g.pick("*", "k", "u", "f", "s") + ")"
		case 1, 2:
			return g.pick("SUM", "AVG") + "(" + g.pick("k", "u", "f") + ")"
		default:
			return g.pick("MIN", "MAX") + "(" + g.pick(cols...) + ")"
		}
	}
	from := " FROM t" + g.where()
	q := query{order: -1}
	switch g.rng.Intn(4) {
	case 0:
		q.sql = "SELECT COUNT(*)" + from
	case 1:
		aggs := []string{agg()}
		for g.rng.Intn(2) == 0 && len(aggs) < 4 {
			aggs = append(aggs, agg())
		}
		q.sql = "SELECT " + strings.Join(aggs, ", ") + from
	case 2:
		key := g.pick("s", "k", "f")
		q.sql, q.group = "SELECT "+key+", COUNT(*), "+agg()+from+" GROUP BY "+key, true
		if g.rng.Intn(2) == 0 {
			q.sql += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(10))
		}
	default:
		var sel []string
		for _, i := range g.rng.Perm(4)[:1+g.rng.Intn(4)] {
			sel = append(sel, cols[i])
		}
		list := strings.Join(sel, ", ")
		if g.rng.Intn(2) == 0 {
			q.order = g.rng.Intn(len(sel))
			from += " ORDER BY " + sel[q.order] + g.pick("", " DESC")
		} else if len(sel) == 4 && g.rng.Intn(2) == 0 {
			list = "*"
		}
		q.sql = "SELECT " + list + from
		if g.rng.Intn(3) > 0 {
			q.full = q.sql
			q.sql += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(40))
		}
	}
	return q
}

func (g *tortureGen) queries(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = g.query()
	}
	return qs
}

// valuesClose is Value equality with a relative epsilon on floats: a
// sharded SUM or AVG adds its partials in shard order.
func valuesClose(a, b Value) bool {
	if a.Type() == Float64 && b.Type() == Float64 && !a.IsNull() && !b.IsNull() {
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.Equal(b)
}

// diffResults holds got to want by the rules sharded results are held
// to: counts, aggregates and group rows exactly, float sums within
// rounding; unordered rows as a multiset; rows under a LIMIT only as a
// subset of full, the reference's full match set; and ordered rows by
// their order keys, since ties may resolve differently.
func diffResults(q query, want, got, full *Result) string {
	if fmt.Sprint(got.Columns, got.Types) != fmt.Sprint(want.Columns, want.Types) {
		return fmt.Sprintf("columns %v %v, want %v %v", got.Columns, got.Types, want.Columns, want.Types)
	}
	if got.Count != want.Count || len(got.Aggs) != len(want.Aggs) || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("count %d, %d aggs, %d rows; want %d, %d aggs, %d rows",
			got.Count, len(got.Aggs), len(got.Rows), want.Count, len(want.Aggs), len(want.Rows))
	}
	if !slices.EqualFunc(got.Aggs, want.Aggs, valuesClose) {
		return fmt.Sprintf("aggregates %v, want %v", got.Aggs, want.Aggs)
	}
	if q.group {
		for i := range want.Rows {
			if !slices.EqualFunc(got.Rows[i], want.Rows[i], valuesClose) {
				return fmt.Sprintf("group row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
			}
		}
		return ""
	}
	for i := range want.Rows {
		if g, w := got.Rows[i], want.Rows[i]; q.order >= 0 && !g[q.order].Equal(w[q.order]) {
			return fmt.Sprintf("row %d order key %v, want %v", i, g[q.order], w[q.order])
		}
	}
	if full == nil {
		full = want
	}
	// A row of the table's four columns at most is a comparable key.
	key := func(r []Value) (k [4]Value) { copy(k[:], r); return k }
	pool := make(map[[4]Value]int, len(full.Rows))
	for _, r := range full.Rows {
		pool[key(r)]++
	}
	for _, r := range got.Rows {
		if pool[key(r)] == 0 {
			return fmt.Sprintf("row %v is not in the reference's match set", r)
		}
		pool[key(r)]--
	}
	return ""
}

// compare runs qs on every lane's reference and subjects and fails on
// the first subject whose answer differs from its reference's.
func compare(t *testing.T, step string, lanes []*lane, qs []query) {
	t.Helper()
	for _, l := range lanes {
		for _, q := range qs {
			want, err := l.ref.db.Exec(q.sql)
			full := (*Result)(nil)
			if err == nil && q.full != "" {
				full, err = l.ref.db.Exec(q.full)
			}
			if err != nil {
				t.Fatalf("%s: the reference refuses %q: %v", step, q.sql, err)
			}
			for _, s := range l.subjects {
				got, err := s.db.Exec(q.sql)
				if err != nil {
					t.Fatalf("%s, %s: %q: %v", step, s.cfg.name, q.sql, err)
				}
				if d := diffResults(q, want, got, full); d != "" {
					t.Fatalf("%s, %s: %q: %s", step, s.cfg.name, q.sql, d)
				}
			}
		}
	}
}

// checkStep compares qs, then runs VerifySkipping on every subject and
// holds its row count to the reference's.
func checkStep(t *testing.T, step string, lanes []*lane, qs []query) {
	t.Helper()
	compare(t, step, lanes, qs)
	for _, l := range lanes {
		for _, s := range l.subjects {
			if err := s.tab.VerifySkipping(); err != nil {
				t.Fatalf("%s, %s: VerifySkipping: %v", step, s.cfg.name, err)
			}
			if got, want := s.tab.NumRows(), l.ref.tab.NumRows(); got != want {
				t.Fatalf("%s, %s: %d rows, the reference has %d", step, s.cfg.name, got, want)
			}
		}
	}
}

// appendAll appends rows, in batches of the given sizes, to every lane's
// reference and subjects.
func appendAll(t *testing.T, step string, lanes []*lane, rows [][]Value, sizes ...int) {
	t.Helper()
	for _, l := range lanes {
		for _, d := range l.all() {
			rest := rows
			for _, n := range sizes {
				if err := d.tab.AppendBatch(rest[:n]); err != nil {
					t.Fatalf("%s, %s: append: %v", step, d.cfg.name, err)
				}
				rest = rest[n:]
			}
		}
	}
}

// newLanes loads the base rows into a reference per lane and into every
// subject, then enables skipping: the unsharded lane, then the sharded
// one. durable subjects log to a WAL directory of their own.
func newLanes(t *testing.T, g *tortureGen, durable bool) []*lane {
	t.Helper()
	lanes := []*lane{{}, {}}
	for _, l := range lanes {
		l.ref = openTorture(t, tortureConfig{name: "reference", policy: None}, "", nil, false)
	}
	for _, cfg := range tortureConfigs() {
		dir := ""
		if durable {
			dir = t.TempDir()
		}
		l := lanes[min(cfg.shards, 1)]
		l.subjects = append(l.subjects, openTorture(t, cfg, dir, nil, false))
	}
	rows := g.batch(tortureBaseRows, -1)
	appendAll(t, "load", lanes, rows, len(rows))
	for _, l := range lanes {
		for _, d := range l.all() {
			if err := d.tab.EnableSkipping(); err != nil {
				t.Fatalf("%s: EnableSkipping: %v", d.cfg.name, err)
			}
		}
	}
	return lanes
}

// forSeeds runs fn as subtests seed=1..tortureSeeds.
func forSeeds(t *testing.T, fn func(t *testing.T, seed int, g *tortureGen)) {
	for seed := 1; seed <= tortureSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fn(t, seed, &tortureGen{rng: rand.New(rand.NewSource(int64(seed)))})
		})
	}
}

// TestTorture_Eval_GeneratedQueries holds every subject to the reference
// over rounds of generated queries on a freshly loaded table: the
// adaptive maps split, merge and switch off as the rounds teach them.
func TestTorture_Eval_GeneratedQueries(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		lanes := newLanes(t, g, false)
		for round := 1; round <= tortureRounds; round++ {
			checkStep(t, fmt.Sprintf("seed %d round %d", seed, round), lanes, g.queries(tortureBatch))
		}
	})
}

// tortureRefusals are statements every configuration must refuse with the
// reference's error.
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

// TestTorture_Error_Refusals holds every configuration to the reference's
// refusals of statements, and every DB to refusing mutations — a batch
// with a bad row or a word the sealed dictionary lacks, a short row, an
// update of a VARCHAR cell, to NULL or past the last row — after which
// the answers still agree: a refused mutation leaves every table as it
// was.
func TestTorture_Error_Refusals(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		lanes := newLanes(t, g, false)
		step := fmt.Sprintf("seed %d", seed)
		for _, i := range g.rng.Perm(len(tortureRefusals)) {
			sql := fmt.Sprintf(tortureRefusals[i], g.rng.Int63n(g.kMax()))
			for _, l := range lanes {
				_, want := l.ref.db.Exec(sql)
				for _, s := range l.subjects {
					if _, err := s.db.Exec(sql); want == nil || err == nil || err.Error() != want.Error() {
						t.Fatalf("%s, %s: %q: error %v, the reference's %v", step, s.cfg.name, sql, err, want)
					}
				}
			}
		}
		bad, unsealed := g.batch(1+g.rng.Intn(200), -1), g.batch(1+g.rng.Intn(200), -1)
		bad[g.rng.Intn(len(bad))][g.rng.Intn(3)] = StringValue("x")
		unsealed[g.rng.Intn(len(unsealed))][3] = StringValue("yew")
		row := g.rng.Intn(tortureBaseRows)
		for _, l := range lanes {
			for _, d := range l.all() {
				for i, err := range []error{d.tab.AppendBatch(bad), d.tab.AppendBatch(unsealed), d.tab.Append(1, 2, 3.5),
					d.tab.Update("s", row, "oak"), d.tab.Update("f", row, nil), d.tab.Update("k", d.tab.NumRows(), 7)} {
					if err == nil {
						t.Fatalf("%s, %s: refusable mutation %d was accepted", step, d.cfg.name, i)
					}
				}
			}
		}
		checkStep(t, step+", after the refused mutations", lanes, g.queries(tortureBatch))
	})
}

// lifecycleSteps are the Lifecycle family's steps, each applied to the
// lanes. Each seed runs every step once, in its own order, then more
// chosen at random.
var lifecycleSteps = []struct {
	name string
	run  func(t *testing.T, step string, g *tortureGen, lanes []*lane)
}{
	{"refine", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		compare(t, step, lanes, g.queries(tortureBatch))
	}},
	{"append a staged chunk", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		// Two batches with no query between them: the second lands in a
		// chunk beside the first, and the next reader consolidates both.
		a, b := 1+g.rng.Intn(300), 1+g.rng.Intn(300)
		appendAll(t, step, lanes, g.batch(a+b, -1), a, b)
	}},
	{"append escalating u past 2^32", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		n := 2 + g.rng.Intn(200)
		appendAll(t, step, lanes, g.batch(n, 1+g.rng.Intn(n-1)), n)
	}},
	{"append single rows", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		// One-row batches fill the tail slot's spare room and close it.
		for range 1 + g.rng.Intn(40) {
			appendAll(t, step, lanes, g.batch(1, -1), 1)
		}
	}},
	{"update in place", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		// A batch first, so that some updates meet rows still staged.
		n := 1 + g.rng.Intn(100)
		appendAll(t, step, lanes, g.batch(n, -1), n)
		rows := lanes[0].ref.tab.NumRows()
		for range 1 + g.rng.Intn(30) {
			row := rows - 1 - g.rng.Intn(n)
			if g.rng.Intn(2) == 0 {
				row = g.rng.Intn(rows)
			}
			col, v := "k", interface{}(g.rng.Int63n(2*g.kMax())-100)
			switch g.rng.Intn(3) {
			case 0:
				col, v = "u", g.rng.Int63n(1_000_000)+g.rng.Int63n(2)<<32
			case 1:
				col, v = "f", g.rng.Float64()*float64(g.kMax())/4
			}
			for _, d := range lanes[0].all() {
				if err := d.tab.Update(col, row, v); err != nil {
					t.Fatalf("%s, %s: update %s[%d] = %v: %v", step, d.cfg.name, col, row, v, err)
				}
			}
			for _, d := range lanes[1].subjects {
				if err := d.tab.Update(col, row, v); err == nil {
					t.Fatalf("%s, %s: a sharded table accepted an update", step, d.cfg.name)
				}
			}
		}
	}},
	{"save and cold load", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		replace(t, step, lanes, func(s *tortureDB) *tortureDB {
			var buf bytes.Buffer
			if err := s.db.SaveTable("t", &buf); err != nil {
				t.Fatalf("%s, %s: SaveTable: %v", step, s.cfg.name, err)
			}
			return openTorture(t, s.cfg, t.TempDir(), buf.Bytes(), true)
		})
	}},
	{"recover a copy of the WAL", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		// The copy is what a kill -9 after the last acknowledged append
		// leaves; internal/crashtest keeps the real kill.
		replace(t, step, lanes, func(s *tortureDB) *tortureDB {
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
	{"drop a skipper and rebuild it", func(t *testing.T, step string, g *tortureGen, lanes []*lane) {
		// The flip corrupts an adaptive map's layout as the first query
		// teaches it; the second query's probe finds the corruption and
		// drops the skipper, and its answer must still be exact.
		lo := g.rng.Int63n(g.kMax())
		q := query{sql: fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k BETWEEN %d AND %d", lo, lo+g.kMax()/4), order: -1}
		for _, l := range lanes {
			for _, s := range l.subjects {
				restore := faultinject.Activate(faultinject.New(1).
					Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
				_, err := s.db.Exec(q.sql)
				restore()
				if err != nil {
					t.Fatalf("%s, %s: %q: %v", step, s.cfg.name, q.sql, err)
				}
			}
		}
		compare(t, step, lanes, []query{q})
		for _, s := range lanes[0].subjects {
			if _, ok := s.tab.SkipperInfo()["k"]; ok == (s.cfg.policy == Adaptive) {
				t.Fatalf("%s, %s: k's skipper listed %v after the flip", step, s.cfg.name, ok)
			}
		}
		for _, l := range lanes {
			for _, s := range l.subjects {
				if err := s.tab.EnableSkipping(); err != nil {
					t.Fatalf("%s, %s: EnableSkipping: %v", step, s.cfg.name, err)
				}
			}
		}
	}},
}

// replace swaps every subject for the DB open builds from it.
func replace(t *testing.T, step string, lanes []*lane, open func(*tortureDB) *tortureDB) {
	for _, l := range lanes {
		for i, s := range l.subjects {
			l.subjects[i] = open(s)
			if err := s.db.Close(); err != nil {
				t.Fatalf("%s, %s: close: %v", step, s.cfg.name, err)
			}
		}
	}
}

// TestTorture_Lifecycle_Steps runs every lifecycle step on durable
// subjects, each followed by a batch of queries and VerifySkipping.
func TestTorture_Lifecycle_Steps(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		lanes := newLanes(t, g, true)
		order := g.rng.Perm(len(lifecycleSteps))
		for len(order) < tortureSteps {
			order = append(order, g.rng.Intn(len(lifecycleSteps)))
		}
		for i, s := range order {
			step := fmt.Sprintf("seed %d step %d (%s)", seed, i+1, lifecycleSteps[s].name)
			lifecycleSteps[s].run(t, step, g, lanes)
			checkStep(t, step, lanes, g.queries(tortureBatch))
		}
	})
}

// TestTorture_Concurrency_AppendUnderReaders runs, on each configuration,
// one writer appending while readers count. A count under the writer lies
// between the reference's before and after it; once the writer stops, a
// final batch is compared.
func TestTorture_Concurrency_AppendUnderReaders(t *testing.T) {
	const readers, reads, batches, size = 3, 12, 8, 50
	forSeeds(t, func(t *testing.T, seed int, g *tortureGen) {
		lanes := newLanes(t, g, false)
		counts := make([]string, readers*reads)
		for i := range counts {
			counts[i] = "SELECT COUNT(*) FROM t" + g.where()
		}
		refCounts := func() []int64 {
			out := make([]int64, len(counts))
			for i, sql := range counts {
				res, err := lanes[0].ref.db.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = res.Aggs[0].Int()
			}
			return out
		}
		rows := g.batch(batches*size, batches*size-20)
		before := refCounts()
		for _, l := range lanes {
			if err := l.ref.tab.AppendBatch(rows); err != nil {
				t.Fatal(err)
			}
		}
		after := refCounts()
		for _, l := range lanes {
			for _, s := range l.subjects {
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
							res, err := s.db.Exec(counts[i])
							if err == nil && (res.Aggs[0].Int() < before[i] || res.Aggs[0].Int() > after[i]) {
								err = fmt.Errorf("counts %v under the writer, outside [%d, %d]", res.Aggs[0], before[i], after[i])
							}
							if err != nil {
								t.Errorf("seed %d, %s: %q: %v", seed, s.cfg.name, counts[i], err)
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
		}
		checkStep(t, fmt.Sprintf("seed %d, after the writer", seed), lanes, g.queries(tortureBatch))
	})
}
