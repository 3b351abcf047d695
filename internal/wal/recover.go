package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adskip/internal/obs"
)

// Segment layout: a fixed header (magic + index + base LSN) followed by
// framed records. Filenames encode the index too, so a directory listing
// orders segments without opening them; the header is still verified.
// The base LSN — the LSN of the last record *before* this segment — makes
// numbering stable across restarts: replay resumes absolute LSNs from the
// first surviving segment's base instead of recounting from 1, so a
// throughLSN captured before a restart still names the same records after
// recovery (even once Compact has recycled the early segments).
const segHeaderLen = 24

var segMagic = [8]byte{'A', 'D', 'S', 'K', 'W', 'A', 'L', 2}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", index))
}

// createSegment creates (or truncates a recycled) segment file and writes
// its header. The header is synced immediately so a crash right after
// rotation cannot leave a headerless active segment.
func createSegment(path string, index, baseLSN uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, index)
	hdr = binary.LittleEndian.AppendUint64(hdr, baseLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so created/renamed segment files survive a
// crash of the directory entry itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// RecoveryStats summarizes one replay pass.
type RecoveryStats struct {
	Segments int    `json:"segments"`
	Records  uint64 `json:"records"`
	Rows     int64  `json:"rows"`
	Updates  int64  `json:"updates"`
	Bytes    int64  `json:"bytes"`
	// TornTail reports that the final records were cut mid-write (the
	// expected signature of a crash) and truncated away.
	TornTail bool `json:"torn_tail"`
	// Truncated describes where and why replay stopped early, empty on a
	// clean tail.
	Truncated string `json:"truncated,omitempty"`
	// DroppedBytes counts bytes discarded at the truncation point,
	// including any segments past it.
	DroppedBytes int64 `json:"dropped_bytes"`
	// DroppedSegments counts whole segments discarded past a mid-log
	// truncation point (0 for an ordinary torn tail).
	DroppedSegments int           `json:"dropped_segments"`
	Elapsed         time.Duration `json:"elapsed_ns"`
}

// Open replays the log at opts.Dir through the replay callback (which may
// be nil to skip replay) and returns an append-ready Log positioned after
// the last durable record.
//
// Replay stops — and the file is truncated — at the first record that is
// cut short, fails its checksum, or fails to decode. In the last segment
// that is the torn tail a kill mid-write leaves and is routine; anywhere
// earlier it orphans the segments after it, which are recycled. A replay
// callback error aborts Open: the caller's state is unknown and the log
// must not accept appends on top of it.
func Open(opts Options, replay func(*Record) error) (*Log, RecoveryStats, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, RecoveryStats{}, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Log{
		opts: opts,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		m:    newLogMetrics(reg),
	}
	reg.GaugeFunc("adskip_wal_lag_us", "Age of the oldest unsynced record, microseconds.",
		func() int64 { return l.Lag().Microseconds() })

	segs, spares, err := listSegments(opts.Dir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	l.spares = spares

	start := time.Now()
	var stats RecoveryStats
	stats.Segments = len(segs)
	var lsn, replayed uint64
	truncated := false
	renamed := false
	expectBase := int64(-1) // first surviving segment's base is adopted
	for si := range segs {
		s := &segs[si]
		if truncated {
			// Records after a truncation point are unreachable: without
			// the dropped suffix their BaseRow chain has a hole. Recycle
			// the whole segment. Rename before truncating — rename is
			// atomic, so no crash point leaves an empty file under a
			// numbered segment name (which a later replay would read as
			// fresh mid-log corruption).
			stats.DroppedBytes += s.bytes
			stats.DroppedSegments++
			spare := filepath.Join(opts.Dir, fmt.Sprintf("spare-%08d.wal", s.index))
			if err := os.Rename(s.path, spare); err != nil {
				return nil, stats, err
			}
			renamed = true
			if err := os.Truncate(spare, 0); err != nil {
				return nil, stats, err
			}
			l.spares = append(l.spares, spare)
			continue
		}
		base, n, off, reason, err := replaySegment(s, opts.MaxRecordBytes, expectBase, replay, &stats)
		if err != nil {
			return nil, stats, err
		}
		replayed += n
		if off >= segHeaderLen {
			// The header parsed, so this segment's LSNs start at its base.
			lsn = base + n
			expectBase = int64(lsn)
		}
		s.lastLSN = lsn
		if reason != "" {
			// Torn or corrupt record: truncate the file right before it.
			stats.Truncated = fmt.Sprintf("segment %d at offset %d: %s", s.index, off, reason)
			stats.TornTail = si == len(segs)-1
			stats.DroppedBytes += s.bytes - off
			if err := os.Truncate(s.path, off); err != nil {
				return nil, stats, err
			}
			s.bytes = off
			truncated = true
		}
	}
	if renamed {
		if err := syncDir(opts.Dir); err != nil {
			return nil, stats, err
		}
	}
	// Keep only segments still on disk (ones past a truncation point were
	// renamed to spares above).
	for _, s := range segs {
		if fileExists(s.path) {
			l.segs = append(l.segs, s)
		}
	}

	stats.Records = replayed
	stats.Elapsed = time.Since(start)
	l.nextLSN = lsn + 1
	l.written = lsn
	l.synced.Store(lsn)

	// Position the active segment (create the first one if none exist).
	if len(l.segs) == 0 {
		l.mu.Lock()
		err := l.rotateLocked()
		l.mu.Unlock()
		if err != nil {
			return nil, stats, err
		}
	} else if tail := l.segs[len(l.segs)-1]; tail.bytes < segHeaderLen {
		// The tail lost even its header (crash during rotation, or a
		// corrupt header truncated to zero): rewrite it in place. Its
		// records (if any) were unreadable, so its base is the last
		// recovered LSN.
		f, err := createSegment(tail.path, tail.index, lsn)
		if err != nil {
			return nil, stats, err
		}
		l.f = f
		l.segOff = segHeaderLen
		l.segs[len(l.segs)-1].bytes = segHeaderLen
	} else {
		f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, stats, err
		}
		off, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, stats, err
		}
		l.f = f
		l.segOff = off
	}

	if stats.Truncated != "" && opts.Logger != nil {
		opts.Logger.Warn("wal recovery truncated log",
			"at", stats.Truncated, "torn_tail", stats.TornTail,
			"dropped_bytes", stats.DroppedBytes, "dropped_segments", stats.DroppedSegments)
	}
	if opts.Logger != nil {
		opts.Logger.Info("wal recovered",
			"segments", stats.Segments, "records", stats.Records,
			"rows", stats.Rows, "updates", stats.Updates,
			"torn_tail", stats.TornTail, "elapsed", stats.Elapsed)
	}

	reg.Counter("adskip_wal_recoveries_total", "WAL replay passes completed.").Inc()
	reg.Counter("adskip_wal_recovered_records_total", "Records replayed across recoveries.").Add(int64(stats.Records))
	if stats.TornTail {
		reg.Counter("adskip_wal_torn_tails_total", "Recoveries that truncated a torn tail.").Inc()
	}

	l.wg.Add(1)
	go l.run()
	return l, stats, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// listSegments scans dir for data segments (ordered by index, header
// verified) and spare files.
func listSegments(dir string) ([]segInfo, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []segInfo
	var spares []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		full := filepath.Join(dir, name)
		var idx uint64
		switch {
		case len(name) == 12 && name[8:] == ".wal" && parseIndex(name[:8], &idx):
			info, err := e.Info()
			if err != nil {
				return nil, nil, err
			}
			segs = append(segs, segInfo{index: idx, path: full, bytes: info.Size()})
		case len(name) > 6 && name[:6] == "spare-":
			spares = append(spares, full)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, spares, nil
}

func parseIndex(s string, out *uint64) bool {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*out = v
	return true
}

// replaySegment reads one segment's records through the replay callback.
// It returns the segment's base LSN (valid only when the returned offset
// is past the header), the number of records replayed, the offset of the
// first bad byte and a human-readable reason when the segment ends in a
// torn or corrupt record ("" for a clean tail), and a hard error only for
// I/O or replay-callback failures. expectBase is the LSN the caller has
// recovered so far; a header whose base disagrees means the log skips or
// repeats records and is treated as corruption at offset 0. expectBase < 0
// (first surviving segment) accepts any base.
func replaySegment(s *segInfo, maxRecord int, expectBase int64, replay func(*Record) error, stats *RecoveryStats) (uint64, uint64, int64, string, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return 0, 0, 0, "", err
	}
	if len(data) < segHeaderLen {
		return 0, 0, 0, fmt.Sprintf("short header (%d bytes)", len(data)), nil
	}
	if [8]byte(data[:8]) != segMagic {
		return 0, 0, 0, "bad segment magic", nil
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != s.index {
		return 0, 0, 0, fmt.Sprintf("header index %d, filename says %d", got, s.index), nil
	}
	base := binary.LittleEndian.Uint64(data[16:24])
	if expectBase >= 0 && base != uint64(expectBase) {
		return 0, 0, 0, fmt.Sprintf("header base LSN %d, want %d", base, expectBase), nil
	}
	var n uint64
	off := int64(segHeaderLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return base, n, off, "", nil // clean tail
		}
		payload, _, err := NextFrame(rest, maxRecord)
		if err != nil {
			return base, n, off, err.Error(), nil
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			return base, n, off, fmt.Sprintf("undecodable record: %v", err), nil
		}
		if replay != nil {
			if err := replay(rec); err != nil {
				return base, n, off, "", fmt.Errorf("wal: replay record %d of segment %d: %w", n+1, s.index, err)
			}
		}
		if rec.Kind == KindUpdate {
			stats.Updates++
		}
		stats.Rows += int64(rec.NumRows())
		n++
		off += int64(frameLen + len(payload))
		stats.Bytes += int64(frameLen + len(payload))
	}
}
