package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"testing"

	"adskip/internal/storage"
)

// fuzzSeedSegment renders a small valid segment image (header + a few
// framed records) the fuzzer mutates from: column-block records, sharded
// or not, with a String column and NULLs.
func fuzzSeedSegment() []byte {
	b := append([]byte(nil), segMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 1) // segment index
	b = binary.LittleEndian.AppendUint64(b, 0) // base LSN
	var err error
	for i := 0; i < 3; i++ {
		rec := columnsRecord("data", uint64(i*3), fuzzTypes, fuzzRows(i))
		rec.Shard = uint32(i)
		if b, err = AppendRecord(b, rec); err != nil {
			panic(err)
		}
	}
	return b
}

var fuzzTypes = []storage.Type{storage.Int64, storage.String, storage.Float64}

func fuzzRows(i int) [][]storage.Value {
	return [][]storage.Value{
		{storage.IntValue(int64(i)), storage.StringValue("ab"), storage.FloatValue(-1.5)},
		{storage.NullValue(storage.Int64), storage.NullValue(storage.String), storage.NullValue(storage.Float64)},
		{storage.IntValue(1 << 40), storage.StringValue("c"), storage.FloatValue(2)},
	}
}

// withOldRecord returns seg with a record of a retired kind framed at its
// end: a row-major append, or (update) an in-place update, sharded when
// shard > 0.
func withOldRecord(seg []byte, shard uint32, update bool) []byte {
	payload := encodeLegacyUpdate(shard, "data", "v", 1, 9)
	if !update {
		var err error
		payload, err = encodeLegacyRows(legacyRows{Table: "data", Shard: shard, BaseRow: 9, Types: fuzzTypes, Rows: fuzzRows(3)})
		if err != nil {
			panic(err)
		}
	}
	return AppendFrame(slices.Clone(seg), payload)
}

// reachesOldRecord reports whether replay of data, segment 1's image, meets
// a whole record of a retired kind before any bad frame, header or payload.
func reachesOldRecord(data []byte) bool {
	if len(data) < segHeaderLen || [8]byte(data[:8]) != segMagic || binary.LittleEndian.Uint64(data[8:16]) != 1 {
		return false
	}
	for rest := data[segHeaderLen:]; len(rest) > 0; {
		payload, next, err := NextFrame(rest, fuzzMaxRecord)
		if err != nil {
			return false
		}
		if _, err := DecodePayload(payload); err != nil {
			return errors.Is(err, ErrRetiredKind)
		}
		rest = next
	}
	return false
}

const fuzzMaxRecord = 1 << 20

// FuzzReplay feeds arbitrary bytes to segment replay. The contract under
// fuzz: never panic, never replay a record whose checksum or structure is
// bad (every record that reaches the callback re-encodes to a payload
// matching its claimed checksum), and always leave an appendable log —
// unless replay meets a whole record of a retired kind, which Open refuses
// with ErrRetiredKind, leaving the segment as it was.
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
	// Records of retired kinds, unsharded and sharded: refused, also where
	// a columns record follows.
	f.Add(withOldRecord(seed, 0, false))
	f.Add(withOldRecord(seed[:segHeaderLen], 2, false))
	f.Add(withOldRecord(seed, 0, true))
	f.Add(append(withOldRecord(seed[:segHeaderLen], 2, true), seed[segHeaderLen:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // keep per-case replay cost bounded
		}
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed int
		// No fsync and no group-commit linger: the target checks replay and
		// that the recovered log takes an append, not durability (the
		// crashtest package does), and the 2 ms linger would cost most of
		// each input's time.
		opts := Options{Dir: dir, MaxRecordBytes: fuzzMaxRecord, NoSync: true, GroupWindow: -1}
		l, stats, err := Open(opts, func(rec *Record) error {
			replayed++
			// Anything replayed must be internally consistent: it re-encodes.
			if _, err := EncodePayload(rec); err != nil {
				t.Fatalf("replayed record does not re-encode: %v", err)
			}
			return nil
		})
		if refused := errors.Is(err, ErrRetiredKind); refused != reachesOldRecord(data) {
			t.Fatalf("Open: err = %v, want a refusal: %v", err, !refused)
		} else if refused {
			if after, rerr := os.ReadFile(segPath(dir, 1)); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused segment changed (%v)", rerr)
			}
			return
		}
		if err != nil {
			// Open fails hard only on real I/O errors, which a byte-slice
			// input cannot cause here.
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if uint64(replayed) != stats.Records {
			t.Fatalf("callback saw %d records, stats say %d", replayed, stats.Records)
		}
		// Whatever the damage, the recovered log accepts an append.
		c, err := l.Append(columnsRecord("data", 0, []storage.Type{storage.Int64}, [][]storage.Value{{storage.IntValue(1)}}))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
	})
}
