package adaptive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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

// zoneBytes is the size of one zone's record in the snapshot.
const zoneBytes = 6*8 + 2 + 1

var (
	azmMagic = [8]byte{'A', 'D', 'S', 'K', 'A', 'Z', 'M', '1'}

	// ErrBadSnapshot indicates the stream is not an adaptive zonemap
	// snapshot or is corrupt.
	ErrBadSnapshot = errors.New("adaptive: bad or corrupt snapshot")
)

// WriteTo serializes the zonemap's learned state.
func (z *Zonemap) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.Write(azmMagic[:])
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		bw.Write(b[:])
	}
	putU64(uint64(z.rows))
	putU64(uint64(z.tailLo))
	if z.enabled {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	putU64(math.Float64bits(z.netBenefit))
	putU64(uint64(z.queries))
	putU64(uint64(z.splits))
	putU64(uint64(z.merges))
	putU64(uint64(z.disables))
	putU64(uint64(z.enables))
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(z.zones)))
	bw.Write(cnt[:])
	for i := range z.zones {
		zn := &z.zones[i]
		putU64(uint64(zn.lo))
		putU64(uint64(zn.hi))
		putU64(uint64(zn.min))
		putU64(uint64(zn.max))
		putU64(uint64(zn.nonNull))
		putU64(math.Float64bits(zn.heat))
		var sk [2]byte
		binary.LittleEndian.PutUint16(sk[:], zn.statSkip)
		bw.Write(sk[:])
		bw.WriteByte(zn.statFail)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	payload := buf.Bytes()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	// Chaos hook: a flipped payload byte makes the checksum fail on Read,
	// exercising the ErrBadSnapshot failure-atomic load path.
	faultinject.Corrupt(faultinject.CodecCorrupt, payload)
	n, err := w.Write(payload)
	if err != nil {
		return int64(n), err
	}
	n2, err := w.Write(sum[:])
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
	br := bytes.NewReader(payload[8:])
	getU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated", ErrBadSnapshot)
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	cfg = cfg.withDefaults()
	z := &Zonemap{cfg: cfg, tune: newTuning(cfg)}
	fields := []*int{&z.rows, &z.tailLo}
	for _, f := range fields {
		v, err := getU64()
		if err != nil {
			return nil, err
		}
		*f = int(v)
	}
	eb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	z.enabled = eb == 1
	nb, err := getU64()
	if err != nil {
		return nil, err
	}
	z.netBenefit = math.Float64frombits(nb)
	counters := []*int{&z.queries, &z.splits, &z.merges, &z.disables, &z.enables}
	for _, c := range counters {
		v, err := getU64()
		if err != nil {
			return nil, err
		}
		*c = int(v)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	// Reject a count the payload left cannot back before allocating for it.
	nz := binary.LittleEndian.Uint32(cnt[:])
	if uint64(nz)*zoneBytes > uint64(br.Len()) {
		return nil, fmt.Errorf("%w: %d zones in %d bytes", ErrBadSnapshot, nz, br.Len())
	}
	z.zones = make([]zone, nz)
	for i := range z.zones {
		zn := &z.zones[i]
		var vals [6]uint64
		for k := range vals {
			v, err := getU64()
			if err != nil {
				return nil, err
			}
			vals[k] = v
		}
		zn.lo, zn.hi = int(vals[0]), int(vals[1])
		zn.min, zn.max = int64(vals[2]), int64(vals[3])
		zn.nonNull = int(vals[4])
		zn.heat = math.Float64frombits(vals[5])
		var sk [2]byte
		if _, err := io.ReadFull(br, sk[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
		}
		zn.statSkip = binary.LittleEndian.Uint16(sk[:])
		sf, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
		}
		zn.statFail = sf
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
