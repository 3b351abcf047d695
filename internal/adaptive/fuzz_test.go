package adaptive

import (
	"bytes"
	"testing"

	"adskip/internal/storage"
)

// FuzzSnapshotRead feeds arbitrary bytes to the zonemap snapshot decoder:
// garbage must error, never panic, and anything accepted must satisfy the
// structural invariants the engine relies on before trusting metadata.
func FuzzSnapshotRead(f *testing.F) {
	z, _ := trainedSeed()
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("ADSKAZM1"))
	f.Add(hugeZoneCount(buf.Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data), smallCfg())
		if err != nil {
			return
		}
		// Structural invariants only (no column to validate against):
		// zones must tile [0, tailLo) — Read itself enforces this, so a
		// success here means the checks held.
		if got.Rows() < 0 || got.NumZones() < 0 {
			t.Fatal("nonsense shape accepted")
		}
	})
}

// trainedSeed builds a small learned zonemap for the fuzz corpus without
// requiring a *testing.T.
func trainedSeed() (*Zonemap, []int64) {
	codes := seqCodes(500, func(i int) int64 { return int64((i / 10) * 7) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	for q := 0; q < 30; q++ {
		execute(z, codes, nil, oneRange(int64(q*11), int64(q*11+40)))
	}
	return z, codes
}
