package table

import (
	"bytes"
	"testing"

	"adskip/internal/storage"
)

// FuzzRead feeds arbitrary bytes to the snapshot decoder: it must reject
// garbage with an error, never panic, and never fabricate a table from
// corrupt input that then violates basic invariants.
func FuzzRead(f *testing.F) {
	// Seed with a genuine snapshot so mutations explore deep decoder
	// paths: a header with a sealed and an unsealed dictionary, a record
	// with NULLs in every column, the closing frame.
	tb := MustNew("seed", Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "s", Type: storage.String},
		{Name: "f", Type: storage.Float64},
		{Name: "u", Type: storage.String},
	})
	tb.AppendRow(storage.IntValue(1), storage.StringValue("x"), storage.FloatValue(-2.5), storage.StringValue("q"))
	tb.AppendRow(storage.NullValue(storage.Int64), storage.StringValue("y"), storage.NullValue(storage.Float64), storage.NullValue(storage.String))
	tb.AppendRow(storage.IntValue(1<<40), storage.NullValue(storage.String), storage.FloatValue(0), storage.StringValue("p"))
	tb.ColumnAt(1).SealDict()
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(magicV1[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("decoded table violates invariants: %v", err)
		}
	})
}

// FuzzReadCSV feeds arbitrary text to the CSV loader.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n")
	f.Add("a\n\n")
	f.Add("")
	f.Add("a,b\n1\n2,3,4\n")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadCSV(bytes.NewReader([]byte(data)), "t", CSVOptions{})
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("loaded CSV violates invariants: %v", err)
		}
	})
}
