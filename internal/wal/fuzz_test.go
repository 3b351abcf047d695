package wal

import (
	"encoding/binary"
	"os"
	"testing"

	"adskip/internal/storage"
)

// fuzzSeedSegment renders a small valid segment image (header + a few
// framed records) the fuzzer mutates from: column-block records, sharded
// or not, with a String column and NULLs; old-format row-major records;
// an update.
func fuzzSeedSegment() []byte {
	b := append([]byte(nil), segMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 1) // segment index
	b = binary.LittleEndian.AppendUint64(b, 0) // base LSN
	types := []storage.Type{storage.Int64, storage.String, storage.Float64}
	for i := 0; i < 3; i++ {
		rows := [][]storage.Value{
			{storage.IntValue(int64(i)), storage.StringValue("ab"), storage.FloatValue(-1.5)},
			{storage.NullValue(storage.Int64), storage.NullValue(storage.String), storage.NullValue(storage.Float64)},
			{storage.IntValue(1 << 40), storage.StringValue("c"), storage.FloatValue(2)},
		}
		legacy, err := encodeLegacyRows(&Record{Kind: KindRows, Table: "data", BaseRow: uint64(i * 6), Types: types, Rows: rows})
		if err != nil {
			panic(err)
		}
		b = AppendFrame(b, legacy)
		rec := columnsRecord("data", uint64(i*6+3), types, rows)
		rec.Shard = uint32(i)
		if b, err = AppendRecord(b, rec); err != nil {
			panic(err)
		}
	}
	b, err := AppendRecord(b, &Record{
		Kind: KindUpdate, Table: "data", Col: "v", Row: 1, Value: storage.IntValue(9),
	})
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzReplay feeds arbitrary bytes to segment replay. The contract under
// fuzz: never panic, never replay a record whose checksum or structure is
// bad (every record that reaches the callback re-encodes to a payload
// matching its claimed checksum), and always leave an appendable log.
func FuzzReplay(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:segHeaderLen])
	f.Add([]byte{})
	f.Add(seed[:len(seed)-3])
	// A few deterministic mutations as extra seeds.
	for _, off := range []int{0, 9, segHeaderLen, segHeaderLen + 4, len(seed) / 2} {
		m := append([]byte(nil), seed...)
		m[off] ^= 0xFF
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // keep per-case replay cost bounded
		}
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed int
		l, stats, err := Open(Options{Dir: dir, MaxRecordBytes: 1 << 20}, func(rec *Record) error {
			replayed++
			// Anything replayed must be internally consistent: it re-encodes
			// (an old-format record through the fixture writer).
			encode := EncodePayload
			if rec.Kind == KindRows {
				encode = encodeLegacyRows
			}
			if _, err := encode(rec); err != nil {
				t.Fatalf("replayed record does not re-encode: %v", err)
			}
			return nil
		})
		if err != nil {
			// Open fails hard only on real I/O errors, which a byte-slice
			// input cannot cause here.
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if uint64(replayed) != stats.Records {
			t.Fatalf("callback saw %d records, stats say %d", replayed, stats.Records)
		}
		// Whatever the damage, the recovered log accepts a durable append.
		c, err := l.Append(columnsRecord("data", 0, []storage.Type{storage.Int64}, [][]storage.Value{{storage.IntValue(1)}}))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
	})
}
