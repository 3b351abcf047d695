package adaptive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"adskip/internal/expr"
	"adskip/internal/faultinject"
)

// Binary snapshot of a learned adaptive zonemap (little-endian):
//
//	magic "ADSKAZM1" (8 bytes)
//	rows u64, tailLo u64, enabled u8
//	netBenefit f64, queries u64
//	splits u64, merges u64, disables u64, enables u64
//	zone count u32, then per zone:
//	  lo u64, hi u64, min i64, max i64, nonNull u64, heat f64,
//	  statSkip u16, statFail u8
//	crc32 (IEEE) of everything above: u32
//
// The snapshot captures learned structure, not configuration: Read takes the
// Config of the engine that loads it, and the tuning constants are the
// same in every build.

// header is a snapshot's fixed-size head and zoneRecord one zone's
// record, in the field order and widths encoding/binary writes them.
type header struct {
	Magic                                      [8]byte
	Rows, TailLo                               int64
	Enabled                                    uint8
	NetBenefit                                 float64
	Queries, Splits, Merges, Disables, Enables int64
	Zones                                      uint32
}

type zoneRecord struct {
	Lo, Hi, Min, Max, NonNull int64
	Heat                      float64
	StatSkip                  uint16
	StatFail                  uint8
}

// zoneBytes is the size of one zone's record in the snapshot.
var zoneBytes = uint64(binary.Size(zoneRecord{}))

var (
	azmMagic = [8]byte{'A', 'D', 'S', 'K', 'A', 'Z', 'M', '1'}

	// ErrBadSnapshot indicates the stream is not an adaptive zonemap
	// snapshot or is corrupt.
	ErrBadSnapshot = errors.New("adaptive: bad or corrupt snapshot")
)

// WriteTo serializes the zonemap's learned state.
func (z *Zonemap) WriteTo(w io.Writer) (int64, error) {
	h := header{Magic: azmMagic, Rows: int64(z.rows), TailLo: int64(z.tailLo), NetBenefit: z.netBenefit,
		Queries: int64(z.queries), Splits: int64(z.splits), Merges: int64(z.merges),
		Disables: int64(z.disables), Enables: int64(z.enables), Zones: uint32(len(z.zones))}
	if z.enabled {
		h.Enabled = 1
	}
	recs := make([]zoneRecord, len(z.zones))
	for i, zn := range z.zones {
		mn, mx := bounds(zn.hull)
		recs[i] = zoneRecord{int64(zn.lo), int64(zn.hi), mn, mx, int64(zn.nonNull), zn.heat, zn.statSkip, zn.statFail}
	}
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, h)
	binary.Write(&buf, binary.LittleEndian, recs)
	payload := buf.Bytes()
	sum := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	// Chaos hook: a flipped payload byte makes the checksum fail on Read,
	// exercising the ErrBadSnapshot failure-atomic load path.
	faultinject.Corrupt(faultinject.CodecCorrupt, payload)
	n, err := w.Write(payload)
	if err != nil {
		return int64(n), err
	}
	n2, err := w.Write(sum)
	return int64(n + n2), err
}

// Read deserializes a snapshot written by WriteTo, applying cfg to the
// restored structure. The caller must validate the result against the
// column it will serve (see Validate / engine.LoadSkipper): a snapshot
// taken before later mutations would prune unsoundly.
func Read(r io.Reader, cfg Config) (*Zonemap, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if len(raw) < len(azmMagic)+4 || [8]byte(raw[:8]) != azmMagic {
		return nil, ErrBadSnapshot
	}
	payload, sumBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	br := bytes.NewReader(payload)
	var h header
	if binary.Read(br, binary.LittleEndian, &h) != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	// Reject a count the payload left cannot back before allocating for it.
	if uint64(h.Zones)*zoneBytes > uint64(br.Len()) {
		return nil, fmt.Errorf("%w: %d zones in %d bytes", ErrBadSnapshot, h.Zones, br.Len())
	}
	recs := make([]zoneRecord, h.Zones)
	binary.Read(br, binary.LittleEndian, recs) // the count check above guarantees the bytes
	cfg = cfg.withDefaults()
	z := &Zonemap{cfg: cfg, tune: newTuning(cfg), rows: int(h.Rows), tailLo: int(h.TailLo),
		enabled: h.Enabled == 1, netBenefit: h.NetBenefit, queries: int(h.Queries),
		splits: int(h.Splits), merges: int(h.Merges), disables: int(h.Disables), enables: int(h.Enables)}
	z.zones = make([]zone, len(recs))
	for i, rec := range recs {
		z.zones[i] = zone{lo: int(rec.Lo), hi: int(rec.Hi), hull: expr.Hull{Min: rec.Min, Max: rec.Max}, nonNull: int(rec.NonNull),
			heat: rec.Heat, statSkip: rec.StatSkip, statFail: rec.StatFail}
		if rec.NonNull == 0 {
			z.zones[i].hull = expr.EmptyHull // recorded as [0, 0]
		}
	}
	// Structural sanity before anyone trusts this metadata.
	prev := 0
	for i, zn := range z.zones {
		if zn.lo != prev || zn.hi <= zn.lo || zn.nonNull < 0 || zn.nonNull > zn.hi-zn.lo {
			return nil, fmt.Errorf("%w: zone %d malformed", ErrBadSnapshot, i)
		}
		prev = zn.hi
	}
	if prev != z.tailLo || z.tailLo > z.rows {
		return nil, fmt.Errorf("%w: zones end at %d, tailLo %d, rows %d", ErrBadSnapshot, prev, z.tailLo, z.rows)
	}
	z.rebuildBlocks(0)
	return z, nil
}
