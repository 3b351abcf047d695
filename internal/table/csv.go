package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"adskip/internal/storage"
)

// CSVOptions configures CSV ingest.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// NoHeader treats the first record as data; columns are named c0, c1,
	// … and the schema must then be provided explicitly.
	NoHeader bool
	// Schema overrides type inference. With a header, names must match
	// the header; without one, it defines both names and types.
	Schema Schema
	// NullLiteral is the spelling of NULL cells (default: empty string).
	NullLiteral string
	// InferRows is how many records type inference examines before
	// committing to a schema (default 1000). Inference prefers the
	// narrowest type that parses every sampled non-null cell:
	// BIGINT ⊂ DOUBLE ⊂ VARCHAR.
	InferRows int
}

func (o CSVOptions) withDefaults() CSVOptions {
	if o.Comma == 0 {
		o.Comma = ','
	}
	if o.InferRows <= 0 {
		o.InferRows = 1000
	}
	return o
}

// ErrCSV wraps CSV ingest errors.
var ErrCSV = errors.New("table: csv")

// ReadCSV loads a CSV stream into a new table. Types are inferred from a
// prefix of the data unless opts.Schema is given.
func ReadCSV(r io.Reader, name string, opts CSVOptions) (*Table, error) {
	opts = opts.withDefaults()
	cr := csv.NewReader(r)
	cr.Comma = opts.Comma
	cr.ReuseRecord = false

	var header []string
	if !opts.NoHeader {
		rec, err := cr.Read()
		if err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", ErrCSV, err)
		}
		header = rec
	}

	// Buffer the inference prefix.
	var buffered [][]string
	for len(buffered) < opts.InferRows {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCSV, err)
		}
		buffered = append(buffered, rec)
	}

	schema := opts.Schema
	if schema == nil {
		if opts.NoHeader {
			return nil, fmt.Errorf("%w: NoHeader requires an explicit Schema", ErrCSV)
		}
		var err error
		schema, err = inferSchema(header, buffered, opts.NullLiteral)
		if err != nil {
			return nil, err
		}
	} else if header != nil {
		if len(schema) != len(header) {
			return nil, fmt.Errorf("%w: schema has %d columns, header %d", ErrCSV, len(schema), len(header))
		}
		for i, cs := range schema {
			if cs.Name != header[i] {
				return nil, fmt.Errorf("%w: schema column %d is %q, header says %q", ErrCSV, i, cs.Name, header[i])
			}
		}
	}

	t, err := New(name, schema)
	if err != nil {
		return nil, err
	}
	batch := NewBatcher(t)
	vals := make([]storage.Value, len(schema))
	appendRec := func(rec []string) error {
		if len(rec) != len(schema) {
			return fmt.Errorf("%w: record has %d fields, schema %d", ErrCSV, len(rec), len(schema))
		}
		for i, cell := range rec {
			v, err := parseCell(cell, schema[i].Type, opts.NullLiteral)
			if err != nil {
				return fmt.Errorf("%w: column %q: %v", ErrCSV, schema[i].Name, err)
			}
			vals[i] = v
		}
		return batch.Add(vals...)
	}
	for _, rec := range buffered {
		if err := appendRec(rec); err != nil {
			return nil, err
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCSV, err)
		}
		if err := appendRec(rec); err != nil {
			return nil, err
		}
	}
	if err := batch.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// inferSchema picks the narrowest type parsing every sampled non-null cell
// of each column.
func inferSchema(header []string, sample [][]string, nullLit string) (Schema, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("%w: empty header", ErrCSV)
	}
	schema := make(Schema, len(header))
	for ci, name := range header {
		canInt, canFloat, sawValue := true, true, false
		for _, rec := range sample {
			if ci >= len(rec) || rec[ci] == nullLit {
				continue
			}
			sawValue = true
			cell := rec[ci]
			if canInt {
				if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
					canInt = false
				}
			}
			if !canInt && canFloat {
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					canFloat = false
				}
			}
			if !canInt && !canFloat {
				break
			}
		}
		typ := storage.String
		switch {
		case !sawValue:
			// All-null or empty sample: strings are the safe choice.
			typ = storage.String
		case canInt:
			typ = storage.Int64
		case canFloat:
			typ = storage.Float64
		}
		schema[ci] = ColumnSpec{Name: name, Type: typ}
	}
	return schema, nil
}

// parseCell converts one CSV cell to a typed value.
func parseCell(cell string, typ storage.Type, nullLit string) (storage.Value, error) {
	if cell == nullLit {
		return storage.NullValue(typ), nil
	}
	switch typ {
	case storage.Int64:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("bad BIGINT %q", cell)
		}
		return storage.IntValue(n), nil
	case storage.Float64:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("bad DOUBLE %q", cell)
		}
		return storage.FloatValue(f), nil
	case storage.String:
		return storage.StringValue(cell), nil
	}
	return storage.Value{}, fmt.Errorf("unknown type %v", typ)
}

// WriteCSV writes the table as CSV with a header row. NULL cells render as
// nullLit (pass "" for empty cells).
func (t *Table) WriteCSV(w io.Writer, nullLit string) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumColumns())
	for i, cs := range t.Schema() {
		header[i] = cs.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, t.NumColumns())
	for r := 0; r < t.NumRows(); r++ {
		for ci := 0; ci < t.NumColumns(); ci++ {
			v := t.ColumnAt(ci).Value(r)
			if v.IsNull() {
				rec[ci] = nullLit
			} else {
				rec[ci] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
