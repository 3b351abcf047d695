package shard

import (
	"math/rand"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// BenchmarkManagerAppendRows times the served workload's load: 1 Mi rows
// (v, a clustered key in 256 bands; seq, the row number; noise, a DOUBLE)
// appended in 64 Ki-row batches to a 2-shard range Manager, beside the
// same batches into one engine. The first batch learns the bounds.
func BenchmarkManagerAppendRows(b *testing.B) {
	const n, batch = 1 << 20, 1 << 16
	v := workload.Generate(workload.DataSpec{N: n, Dist: workload.Clustered, Domain: n, Clusters: 256, Seed: 1})
	schema := table.Schema{{Name: "v", Type: storage.Int64}, {Name: "seq", Type: storage.Int64}, {Name: "noise", Type: storage.Float64}}
	rng := rand.New(rand.NewSource(2))
	cells := make([]storage.Value, 3*n)
	rows := make([][]storage.Value, n)
	for i := range rows {
		rows[i] = cells[3*i : 3*i+3 : 3*i+3]
		rows[i][0], rows[i][1], rows[i][2] = storage.IntValue(v[i]), storage.IntValue(int64(i)), storage.FloatValue(rng.Float64()*1000)
	}
	for _, c := range []struct {
		name string
		open func() (func([][]storage.Value) error, error)
	}{
		{"manager", func() (func([][]storage.Value) error, error) {
			m, err := New("data", schema, Options{Shards: 2, Key: "v", Mode: ModeRange})
			if err != nil {
				return nil, err
			}
			return m.AppendRows, nil
		}},
		{"engine", func() (func([][]storage.Value) error, error) {
			return engine.New(table.MustNew("data", schema), engine.Options{}).AppendRows, nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				appendRows, err := c.open()
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < n; lo += batch {
					if err := appendRows(rows[lo : lo+batch]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
