package table_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/sql"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
	"adskip/internal/workload"
)

// snapshotSchema is the generated "data" table plus a nullable Float64
// column and two String columns, one whose dictionary is sealed and one
// whose is not.
var snapshotSchema = table.Schema{
	{Name: "v", Type: storage.Int64},
	{Name: "seq", Type: storage.Int64},
	{Name: "noise", Type: storage.Float64},
	{Name: "f", Type: storage.Float64},
	{Name: "tag", Type: storage.String},
	{Name: "open", Type: storage.String},
}

// snapshotTable generates n rows of dist into a fresh table: more than one
// snapshot record's worth when n > BulkRows.
func snapshotTable(t *testing.T, dist workload.Distribution, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("data", snapshotSchema)
	err := workload.DataBatches(dist, n, workload.DataSeed, func(rows [][]storage.Value) error {
		batch := make([][]storage.Value, len(rows))
		for i, r := range rows {
			v, seq := r[0].Int(), r[1].Int()
			f, open := storage.FloatValue(float64(v)/3-7), storage.StringValue(fmt.Sprintf("o%d", (n-int(seq))%37))
			if seq%7 == 0 {
				f = storage.NullValue(storage.Float64)
			}
			if seq%11 == 0 {
				open = storage.NullValue(storage.String)
			}
			batch[i] = append(append([]storage.Value(nil), r...), f, storage.StringValue(fmt.Sprintf("t%03d", v%500)), open)
		}
		return tb.AppendRows(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// snapshotQueries is the corpus both engines answer: counts over ranges of
// every skippable column, aggregates, groups, ordered and unordered
// projections, NULL tests.
var snapshotQueries = []string{
	"SELECT COUNT(*) FROM data",
	"SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 9000",
	"SELECT COUNT(*), SUM(v), MIN(f), MAX(f), AVG(noise) FROM data WHERE seq < 50000",
	"SELECT COUNT(*) FROM data WHERE f IS NULL",
	"SELECT COUNT(*) FROM data WHERE tag BETWEEN 't010' AND 't020'",
	"SELECT tag, COUNT(*) FROM data WHERE v < 3000 GROUP BY tag LIMIT 20",
	"SELECT open, COUNT(*), MIN(v) FROM data GROUP BY open",
	"SELECT v, f, tag, open FROM data WHERE v BETWEEN 500 AND 600 ORDER BY seq LIMIT 40",
	"SELECT seq, open FROM data WHERE open = 'o5' ORDER BY f DESC LIMIT 10",
	"SELECT COUNT(*) FROM data WHERE open IS NULL AND noise < 500",
}

// answers runs the corpus and renders each answer without its statistics,
// which depend on what the skippers have learned.
func answers(t *testing.T, e *engine.Engine) []string {
	t.Helper()
	var out []string
	for _, q := range snapshotQueries {
		res, err := sql.Exec(e, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, fmt.Sprint(res.Count, res.Aggs, res.Columns, res.Rows))
	}
	return out
}

// TestSnapshotAnswersEveryQuery: a table of each of the six distributions,
// with a nullable Float64 column and a sealed and an unsealed String
// column, saved and loaded, answers every query as it did; each
// dictionary keeps its seal state and its code assignment.
func TestSnapshotAnswersEveryQuery(t *testing.T) {
	for dist := workload.Sorted; dist <= workload.Bimodal; dist++ {
		t.Run(dist.String(), func(t *testing.T) {
			src := snapshotTable(t, dist, table.BulkRows+5000)
			e := engine.New(src, engine.Options{Policy: engine.PolicyAdaptive})
			if err := e.EnableSkipping("v", "seq", "f", "tag"); err != nil {
				t.Fatal(err)
			}
			want := answers(t, e)
			var buf bytes.Buffer
			if err := e.ReadTable(func(tb *table.Table) error { _, err := tb.WriteTo(&buf); return err }); err != nil {
				t.Fatal(err)
			}
			got, err := table.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"tag", "open"} {
				a, _ := src.Column(name)
				b, _ := got.Column(name)
				if a.Dict().Sealed() != b.Dict().Sealed() || fmt.Sprint(a.Dict().Values()) != fmt.Sprint(b.Dict().Values()) {
					t.Fatalf("%s: dictionary sealed=%v %d strings, loaded sealed=%v %d strings",
						name, a.Dict().Sealed(), a.Dict().Len(), b.Dict().Sealed(), b.Dict().Len())
				}
			}
			if a, _ := src.Column("tag"); !a.Dict().Sealed() {
				t.Fatal("tag's dictionary is not sealed: the test lost its sealed case")
			}
			if a, _ := src.Column("open"); a.Dict().Sealed() {
				t.Fatal("open's dictionary is sealed: the test lost its unsealed case")
			}
			loaded := engine.New(got, engine.Options{Policy: engine.PolicyAdaptive})
			if err := loaded.EnableSkipping("v", "seq", "f", "tag"); err != nil {
				t.Fatal(err)
			}
			if have := answers(t, loaded); fmt.Sprint(have) != fmt.Sprint(want) {
				for i := range want {
					if have[i] != want[i] {
						t.Errorf("%s:\nloaded   %.300s\noriginal %.300s", snapshotQueries[i], have[i], want[i])
					}
				}
			}
		})
	}
}

// TestSnapshotSize: a snapshot stores an Int64 column of 4-byte codes at
// about 4 bytes a row, half of the 8 the int64-per-code format took.
func TestSnapshotSize(t *testing.T) {
	const rows = 2*table.BulkRows + 100
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	b := table.NewBatcher(tb)
	for i := 0; i < rows; i++ {
		if err := b.Add(storage.IntValue(int64(i * 3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tb.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: %d bytes reported, %d written, %v", n, buf.Len(), err)
	}
	// The old format: magic, name, column count, the column's name, type,
	// row count, 8-byte codes, NULL count, trailing checksum.
	old := 8 + 4 + 1 + 4 + 4 + 1 + 1 + 8 + 8*rows + 8 + 4
	perRow, oldPerRow := float64(buf.Len())/rows, float64(old)/rows
	t.Logf("%d rows of 4-byte codes: %d bytes (%.4f a row); the int64-per-code format took %d (%.4f a row)", rows, buf.Len(), perRow, old, oldPerRow)
	if perRow > 4.01 {
		t.Fatalf("%.4f bytes a row, want about 4", perRow)
	}
}

// TestSnapshotRefusesOldFormat: the int64-per-code format is refused by
// name, as a snapshot this release does not read.
func TestSnapshotRefusesOldFormat(t *testing.T) {
	_, err := table.Read(strings.NewReader("ADSKTBL1\x01\x00\x00\x00t\x00\x00\x00\x00"))
	if !errors.Is(err, table.ErrBadMagic) || !strings.Contains(err.Error(), "ADSKTBL1") || !strings.Contains(err.Error(), "old snapshot format") {
		t.Fatalf("old format: %v", err)
	}
}

// TestSnapshotRefusesClaimsBeforeAllocating: a header that claims 2^31
// of something — dictionary entries, columns — a record that claims 2^31
// rows, and a closing frame that does, are errors, and none costs more
// than a small constant times the bytes read.
func TestSnapshotRefusesClaimsBeforeAllocating(t *testing.T) {
	const huge = 1 << 31
	header := func(body ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 1)
		b = append(b, 't')
		return append(b, bytes.Join(body, nil)...)
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	column := func(typ storage.Type) []byte { return append(append(u32(1), 'c'), byte(typ)) }
	snapshot := func(frames ...[]byte) []byte {
		b := []byte("ADSKTBL2")
		for _, f := range frames {
			b = wal.AppendFrame(b, f)
		}
		return b
	}
	record := []byte{byte(wal.KindColumns), 0, 0, 0, 0, 1, 0, 't'}
	record = binary.LittleEndian.AppendUint64(record, 0)
	record = binary.LittleEndian.AppendUint32(record, huge)
	record = binary.LittleEndian.AppendUint16(record, 1)
	record = append(record, make([]byte, 64)...)
	oneInt := header(u32(1), column(storage.Int64))
	for name, raw := range map[string][]byte{
		"dictionary entries": snapshot(header(u32(1), column(storage.String), []byte{0}, u32(huge))),
		"columns":            snapshot(header(u32(huge), column(storage.Int64))),
		"record rows":        snapshot(oneInt, record),
		"closing rows":       snapshot(oneInt, binary.LittleEndian.AppendUint64(nil, huge)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := table.Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, table.ErrChecksum) || n > 1<<20 {
			t.Errorf("%s: %d-byte snapshot: %d bytes allocated, err %v", name, len(raw), n, err)
		}
	}
}

// TestReplayPartialOverlap: a record whose first rows a table already
// holds adds only the rows after them — strings new to the batch join the
// dictionary in the order those rows reference them, as an append of the
// suffix would — one it holds whole changes nothing, and one past the end
// is a gap.
func TestReplayPartialOverlap(t *testing.T) {
	schema := table.Schema{{Name: "i", Type: storage.Int64}, {Name: "s", Type: storage.String}}
	var rows [][]storage.Value
	for k := 0; k < 300; k++ {
		s := storage.StringValue(fmt.Sprintf("s%d", k%13))
		if k%17 == 5 {
			s = storage.NullValue(storage.String)
		}
		rows = append(rows, []storage.Value{storage.IntValue(int64(k) << (k / 100 * 16)), s})
	}
	src := table.MustNew("t", schema)
	if err := src.AppendRows(rows[:10]); err != nil {
		t.Fatal(err)
	}
	st, err := src.Stage(rows[10:])
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{Kind: wal.KindColumns, Table: "t", BaseRow: 10, Blocks: src.Blocks(st)}
	payload, err := wal.EncodePayload(rec)
	if err != nil {
		t.Fatal(err)
	}
	src.Commit(st)
	if rec, err = wal.DecodePayload(payload); err != nil {
		t.Fatal(err)
	}
	want := dump(src)
	for _, have := range []int{10, 11, 150, 299, 300} {
		dst := table.MustNew("t", schema)
		if err := dst.AppendRows(rows[:have]); err != nil {
			t.Fatal(err)
		}
		if err := dst.Replay(rec); err != nil {
			t.Fatalf("holding %d rows: %v", have, err)
		}
		if got := dump(dst); got != want {
			t.Fatalf("holding %d rows, replay gives\n%.400s\nwant\n%.400s", have, got, want)
		}
	}
	if err := table.MustNew("t", schema).Replay(rec); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("record past the end: %v", err)
	}
}

// dump renders every cell and each dictionary in code order.
func dump(tb *table.Table) string {
	var b strings.Builder
	for ci := 0; ci < tb.NumColumns(); ci++ {
		c := tb.ColumnAt(ci)
		fmt.Fprintf(&b, "[%s %d rows, width %d:", c.Name(), c.Len(), c.Vec().Width())
		for i := 0; i < c.Len(); i++ {
			fmt.Fprintf(&b, " %v", c.Value(i))
		}
		if d := c.Dict(); d != nil {
			fmt.Fprintf(&b, " dict %q", d.Values())
		}
		b.WriteString("]")
	}
	return b.String()
}
