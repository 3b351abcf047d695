package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// gatherSchema is testSchema with a second BIGINT, qty, which the batches
// below escalate to 64-bit codes while the key stays narrow.
func gatherSchema() table.Schema {
	return append(testSchema(), table.ColumnSpec{Name: "qty", Type: storage.Int64})
}

// gatherBatches is a load that exercises every staging rule through the
// sharded append, keyed on id or price: a small batch that round-robins
// whole before bounds are learned, with a NULL key and the first strings;
// the batch that learns them, with NULL keys, NULLs in every column and
// new and known strings; a batch whose qty codes no longer fit 32 bits
// (and, on the Float64 key, whose keys are negative and infinite); and
// a batch of known strings only, which a sealed dictionary still takes.
func gatherBatches() [][][]storage.Value {
	rows := func(n int, seed int64, cities []string, qty func(i int) int64) [][]storage.Value {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]storage.Value, n)
		for i := range out {
			r := []storage.Value{
				storage.IntValue(rng.Int63n(5000)),
				storage.FloatValue(float64(rng.Intn(20000)-10000) / 8),
				storage.StringValue(cities[rng.Intn(len(cities))]),
				storage.IntValue(qty(i)),
			}
			for c := range r {
				if rng.Intn(13) == 0 {
					r[c] = storage.NullValue(gatherSchema()[c].Type)
				}
			}
			out[i] = r
		}
		return out
	}
	small := func(int) int64 { return 7 }
	first := rows(9, 1, []string{"oslo", "bergen"}, small)
	first[2][0], first[2][1] = storage.NullValue(storage.Int64), storage.NullValue(storage.Float64)
	learn := rows(700, 2, []string{"tromso", "oslo", "alta", "bergen", "molde"}, func(i int) int64 { return int64(i) })
	wide := rows(300, 3, []string{"alta", "vik", "oslo"}, func(i int) int64 { return int64(i) << 33 })
	wide[5][1], wide[6][1] = storage.FloatValue(math.Inf(-1)), storage.FloatValue(math.Inf(1))
	known := rows(200, 4, []string{"oslo", "vik", "molde"}, func(i int) int64 { return -int64(i) })
	return [][][]storage.Value{first, learn, wide, known}
}

// checkGatherMatchesStage appends batches to a Manager and holds every
// shard to a reference table that staged the shard's rows itself, in batch
// order (table.Stage): the same codes at the same width, the same rows
// still pending, the same NULL bitmap and dictionary, and, with the WAL
// the Manager logs to read back, byte-identical column blocks. The
// shard's rows come from a twin Manager's route, which sees the same
// batches. sealAfter batches in (never, when negative), the city
// column's dictionary is sealed on both.
func checkGatherMatchesStage(t *testing.T, mode Mode, shards int, key string, schema table.Schema, batches [][][]storage.Value, sealAfter int) {
	t.Helper()
	opts := Options{Shards: shards, Key: key, Mode: mode, Engine: engine.Options{Policy: engine.PolicyNone}}
	m, err := New("g", schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New("g", schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	refs := make([]*table.Table, shards)
	for i := range refs {
		refs[i] = table.MustNew("g", schema)
	}
	wantBlocks := make([][][]byte, shards) // per shard, per record: the blocks' bytes, concatenated
	for bi, batch := range batches {
		if bi == sealAfter {
			if err := m.EnableSkipping("city"); err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				city, _ := ref.Column("city")
				city.SealDict()
			}
		}
		if len(batch) == 0 {
			continue // an empty append routes nothing
		}
		src, err := twin.proto.StageApart(batch, table.Staged{})
		if err != nil {
			t.Fatal(err)
		}
		r := twin.route(src)
		for si, list := range r.rows {
			if len(list) == 0 {
				continue
			}
			var rows [][]storage.Value
			for _, i := range list {
				rows = append(rows, batch[i])
			}
			st, err := refs[si].Stage(rows)
			if err != nil {
				t.Fatal(err)
			}
			var raw []byte
			for _, b := range refs[si].Blocks(st) {
				raw = append(raw, b.Bytes()...)
			}
			wantBlocks[si] = append(wantBlocks[si], raw)
			refs[si].Commit(st)
		}
		if err := m.AppendRows(batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for si, s := range m.shards {
			err := s.eng.ReadTable(func(got *table.Table) error {
				return sameColumns(got, refs[si])
			})
			if err != nil {
				t.Fatalf("%v %d shards key %s, batch %d, shard %d: %v", mode, shards, key, bi, s.id, err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	gotBlocks := make([][][]byte, shards)
	l, _, err = wal.Open(wal.Options{Dir: dir, NoSync: true}, func(rec *wal.Record) error {
		var raw []byte
		for _, b := range rec.Blocks {
			raw = append(raw, b.Bytes()...)
		}
		gotBlocks[rec.Shard-1] = append(gotBlocks[rec.Shard-1], raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for si := range gotBlocks {
		if len(gotBlocks[si]) != len(wantBlocks[si]) {
			t.Fatalf("shard %d logged %d records, staging its rows gives %d", si+1, len(gotBlocks[si]), len(wantBlocks[si]))
		}
		for ri := range gotBlocks[si] {
			if !bytes.Equal(gotBlocks[si][ri], wantBlocks[si][ri]) {
				t.Fatalf("shard %d record %d: logged blocks differ from what staging its rows encodes", si+1, ri)
			}
		}
	}
}

// sameColumns compares two tables column by column: row count and rows
// pending before any read, then width, codes, NULL bitmap and dictionary.
func sameColumns(got, want *table.Table) error {
	for ci := 0; ci < want.NumColumns(); ci++ {
		g, w := got.ColumnAt(ci), want.ColumnAt(ci)
		if g.Len() != w.Len() || g.Staged() != w.Staged() {
			return fmt.Errorf("column %q: %d rows, %d pending; staging gives %d, %d", w.Name(), g.Len(), g.Staged(), w.Len(), w.Staged())
		}
		gv, wv := g.Vec(), w.Vec()
		if gv.Width() != wv.Width() || !slices.Equal(gv.N, wv.N) || !slices.Equal(gv.W, wv.W) {
			return fmt.Errorf("column %q: codes at width %d differ from staging's at width %d", w.Name(), gv.Width(), wv.Width())
		}
		if g.NullCount() != w.NullCount() {
			return fmt.Errorf("column %q: %d NULLs, staging gives %d", w.Name(), g.NullCount(), w.NullCount())
		}
		for i := 0; i < w.Len(); i++ {
			if g.IsNull(i) != w.IsNull(i) {
				return fmt.Errorf("column %q row %d: NULL %v, staging gives %v", w.Name(), i, g.IsNull(i), w.IsNull(i))
			}
		}
		if gd, wd := g.Dict(), w.Dict(); wd != nil {
			if gd.Len() != wd.Len() || gd.Sealed() != wd.Sealed() {
				return fmt.Errorf("column %q: dictionary of %d (sealed %v), staging gives %d (sealed %v)", w.Name(), gd.Len(), gd.Sealed(), wd.Len(), wd.Sealed())
			}
			for code := 0; code < wd.Len(); code++ {
				if gd.Value(int64(code)) != wd.Value(int64(code)) {
					return fmt.Errorf("column %q: code %d is %q, staging gives %q", w.Name(), code, gd.Value(int64(code)), wd.Value(int64(code)))
				}
			}
		}
	}
	return nil
}

// TestGatherMatchesStage: a shard's columns and log records after a
// sharded append are exactly what staging the shard's own rows would
// have made of them, in both modes, at 2 and 3 shards, keyed on a
// BIGINT and on a DOUBLE.
func TestGatherMatchesStage(t *testing.T) {
	for _, mode := range []Mode{ModeRange, ModeHash} {
		for _, shards := range []int{2, 3} {
			for _, key := range []string{"id", "price"} {
				t.Run(fmt.Sprintf("%v/%d/%s", mode, shards, key), func(t *testing.T) {
					checkGatherMatchesStage(t, mode, shards, key, gatherSchema(), gatherBatches(), 3)
				})
			}
		}
	}
}

// TestRefusedBatchLeavesShardsAsTheyWere: a batch that any one shard's
// part of it makes unacceptable — a NaN, a value of another type, a short
// row, a string a sealed dictionary lacks — is refused whole, as one
// engine refuses it: the error names the batch row, and no shard holds a
// row of it, widens its key bounds for it or logs it. The bad row is the
// batch's last and carries the greatest key, so in range mode the shards
// before its own have staged their rows when it is met.
func TestRefusedBatchLeavesShardsAsTheyWere(t *testing.T) {
	bad := map[string]func(r []storage.Value) []storage.Value{
		"NaN":           func(r []storage.Value) []storage.Value { r[1] = storage.FloatValue(math.NaN()); return r },
		"type mismatch": func(r []storage.Value) []storage.Value { r[1] = storage.IntValue(3); return r },
		"short row":     func(r []storage.Value) []storage.Value { return r[:2] },
		"sealed string": func(r []storage.Value) []storage.Value { r[2] = storage.StringValue("reykjavik"); return r },
	}
	for _, mode := range []Mode{ModeRange, ModeHash} {
		for _, shards := range []int{2, 4} {
			for _, logged := range []bool{false, true} {
				for name, spoil := range bad {
					t.Run(fmt.Sprintf("%v/%d/wal=%v/%s", mode, shards, logged, name), func(t *testing.T) {
						checkRefusedBatch(t, mode, shards, logged, spoil)
					})
				}
			}
		}
	}
}

func checkRefusedBatch(t *testing.T, mode Mode, shards int, logged bool, spoil func([]storage.Value) []storage.Value) {
	opts := Options{Shards: shards, Key: "id", Mode: mode}
	dir := t.TempDir()
	var l *wal.Log
	load := func(logged bool) *Manager {
		m, err := New("sales", testSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if logged {
			if l, _, err = wal.Open(wal.Options{Dir: dir, NoSync: true}, func(*wal.Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
			m.SetWAL(l)
		}
		if err := m.AppendRows(testRows(800)); err != nil {
			t.Fatal(err)
		}
		if err := m.EnableSkipping("city"); err != nil { // seals every shard's dictionary
			t.Fatal(err)
		}
		return m
	}
	m, twin := load(logged), load(false)
	before := snapshotShards(t, m)

	// A row for every shard — the twin takes the good rows to show it —
	// then the bad one.
	batch := make([][]storage.Value, 0, 1001)
	for i := 0; i < 1000; i++ {
		batch = append(batch, []storage.Value{storage.IntValue(int64(i * 4 / 5)), storage.FloatValue(1), storage.StringValue("oslo")})
	}
	if err := twin.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snapshotShards(t, twin) {
		if len(snap.rows) == len(before[i].rows) {
			t.Fatalf("shard %d takes no row of the batch", i+1)
		}
	}
	batch = append(batch, spoil([]storage.Value{storage.IntValue(5000), storage.FloatValue(1), storage.StringValue("oslo")}))
	err := m.AppendRows(batch)
	if err == nil {
		t.Fatal("a batch with a bad row was accepted")
	}
	if !strings.Contains(err.Error(), "row 1000") {
		t.Fatalf("error %q does not name batch row 1000", err)
	}
	if after := snapshotShards(t, m); !slices.EqualFunc(before, after, shardSnapshot.equal) {
		t.Fatalf("a refused batch changed the shards:\nbefore %+v\nafter  %+v", before, after)
	}
	if !logged {
		return
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := New("sales", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err = wal.Open(wal.Options{Dir: dir, NoSync: true}, r.ReplayRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recovered := snapshotShards(t, r); !slices.EqualFunc(before, recovered, shardSnapshot.equal) {
		t.Fatalf("recovery differs from the shards before the refused batch:\nbefore    %+v\nrecovered %+v", before, recovered)
	}
}

// shardSnapshot is what a refused batch must leave as it was: a shard's
// rows, rendered, and its observed key stats.
type shardSnapshot struct {
	rows     []string
	observed keyStats
}

func (a shardSnapshot) equal(b shardSnapshot) bool {
	return a.observed == b.observed && slices.Equal(a.rows, b.rows)
}

func snapshotShards(t *testing.T, m *Manager) []shardSnapshot {
	t.Helper()
	out := make([]shardSnapshot, len(m.shards))
	for i, s := range m.shards {
		err := s.eng.ReadTable(func(tb *table.Table) error {
			rows, err := tb.Rows(0, tb.NumRows())
			out[i].rows = renderRows(rows)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		out[i].observed = s.observed
		s.mu.Unlock()
	}
	return out
}

// TestConcurrentAppenders: appenders sharing one Manager — and so its
// staged-batch and routing buffers — each land every row exactly once,
// and each shard's observed bounds still match the rows it holds.
func TestConcurrentAppenders(t *testing.T) {
	for _, mode := range []Mode{ModeRange, ModeHash} {
		m, err := New("sales", testSchema(), Options{Shards: 3, Key: "id", Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		rows := testRows(4000)
		const appenders = 4
		var wg sync.WaitGroup
		errs := make([]error, appenders)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for lo := a * 100; lo < len(rows) && errs[a] == nil; lo += appenders * 100 {
					errs[a] = m.AppendRows(rows[lo:min(lo+100, len(rows))])
				}
			}(a)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for _, snap := range snapshotShards(t, m) {
			got = append(got, snap.rows...)
		}
		want := renderRows(rows)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: the shards hold %d rows that differ from the %d appended", mode, len(got), len(want))
		}
		for _, s := range m.shards {
			col, err := s.eng.Table().Column("id")
			if err != nil {
				t.Fatal(err)
			}
			held := noKeys
			for i := 0; i < col.Len(); i++ {
				if col.IsNull(i) {
					held.nulls++
				} else {
					c := col.Vec().At(i)
					held.keys = held.keys.Union(expr.Hull{Min: c, Max: c})
				}
			}
			if s.observed != held {
				t.Errorf("%v shard %d: observed %+v, rows held give %+v", mode, s.id, s.observed, held)
			}
		}
	}
}
