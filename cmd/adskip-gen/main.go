// Command adskip-gen generates synthetic datasets as table snapshots the
// demo REPL (and any adskip program) can load.
//
// Usage:
//
//	adskip-gen -rows 1000000 -dist clustered -out data.adsk
//
// The generated table is named "data" and has columns:
//
//	v     BIGINT   — the distribution under test
//	seq   BIGINT   — row sequence number (always sorted)
//	noise DOUBLE   — uniform noise (never skippable)
//
// With -wal-dir, -corrupt switches targets: instead of writing a
// snapshot it damages the newest WAL segment in that directory (flip a
// payload byte, or truncate mid-record), for rehearsing what recovery
// does with a disk that lied.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"adskip/internal/faultinject"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

func main() {
	var (
		rows    = flag.Int("rows", 1<<20, "rows to generate")
		dist    = flag.String("dist", "clustered", "distribution: sorted|semi-sorted|clustered|uniform|zipf|bimodal")
		seed    = flag.Int64("seed", 42, "RNG seed")
		out     = flag.String("out", "data.adsk", "output snapshot path")
		corrupt = flag.Bool("corrupt", false, "deliberately corrupt the output: the snapshot checksum, or (with -wal-dir) a WAL segment")
		walDir  = flag.String("wal-dir", "", "with -corrupt: damage the newest WAL segment in this directory instead of writing a snapshot")
		walMode = flag.String("wal-corrupt", "flip", "WAL damage mode (with -wal-dir): flip = xor a payload byte (checksum mismatch), truncate = cut the file mid-record (torn tail)")
	)
	flag.Parse()

	if *walDir != "" {
		if !*corrupt {
			fmt.Fprintln(os.Stderr, "adskip-gen: -wal-dir is a corruption target; it requires -corrupt")
			os.Exit(2)
		}
		if err := corruptWAL(*walDir, *walMode, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "adskip-gen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var d workload.Distribution
	switch *dist {
	case "sorted":
		d = workload.Sorted
	case "semi-sorted":
		d = workload.SemiSorted
	case "clustered":
		d = workload.Clustered
	case "uniform":
		d = workload.Uniform
	case "zipf":
		d = workload.Zipf
	case "bimodal":
		d = workload.Bimodal
	default:
		fmt.Fprintf(os.Stderr, "adskip-gen: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	vals := workload.Generate(workload.DataSpec{
		N: *rows, Dist: d, Domain: int64(*rows), Seed: *seed,
	})
	rng := rand.New(rand.NewSource(*seed + 1))

	tbl := table.MustNew("data", table.Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
		{Name: "noise", Type: storage.Float64},
	})
	load := func() error {
		batch := table.NewBatcher(tbl)
		for i, v := range vals {
			err := batch.Add(storage.IntValue(v), storage.IntValue(int64(i)),
				storage.FloatValue(rng.Float64()*1000))
			if err != nil {
				return err
			}
		}
		return batch.Flush()
	}
	if err := load(); err != nil {
		fmt.Fprintf(os.Stderr, "adskip-gen: %v\n", err)
		os.Exit(1)
	}

	if *corrupt {
		// Route the write through the fault injector so the trailing
		// checksum gets a flipped byte: loaders must reject the snapshot
		// with a checksum error instead of ingesting corrupt data.
		restore := faultinject.Activate(faultinject.New(*seed).
			Set(faultinject.CodecCorrupt, faultinject.Rule{Every: 1}))
		defer restore()
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adskip-gen: %v\n", err)
		os.Exit(1)
	}
	n, err := tbl.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adskip-gen: %v\n", err)
		os.Exit(1)
	}
	if *corrupt {
		fmt.Printf("wrote DELIBERATELY CORRUPT snapshot: %d rows (%s, %d bytes) to %s\n", *rows, *dist, n, *out)
		return
	}
	fmt.Printf("wrote %d rows (%s, %d bytes) to %s\n", *rows, *dist, n, *out)
}

// corruptWAL damages the newest live segment (NNNNNNNN.wal, spares
// excluded) in dir. flip xors one byte past the 24-byte segment header —
// replay reports a checksum mismatch (or torn frame, if the byte lands
// in framing) and truncates there. truncate cuts the last few bytes so
// the final record is torn mid-frame, the exact shape a crash mid-write
// leaves behind.
func corruptWAL(dir, mode string, seed int64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".wal") && !strings.HasPrefix(name, "spare-") {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("no WAL segments in %s", dir)
	}
	sort.Strings(segs) // zero-padded indexes sort chronologically
	path := filepath.Join(dir, segs[len(segs)-1])
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	const segHeader = 24 // magic + index + base LSN; keep in sync with internal/wal
	if info.Size() <= segHeader {
		return fmt.Errorf("%s holds no records (%d bytes)", path, info.Size())
	}
	switch mode {
	case "flip":
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		body := info.Size() - segHeader
		off := segHeader + rand.New(rand.NewSource(seed)).Int63n(body)
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			return err
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b, off); err != nil {
			return err
		}
		fmt.Printf("DELIBERATELY CORRUPTED %s: flipped byte at offset %d\n", path, off)
	case "truncate":
		// Dropping up to 7 bytes always lands mid-frame (a complete frame
		// is at least 8), leaving a torn final record.
		cut := info.Size() - 7
		if cut < segHeader {
			cut = segHeader
		}
		if err := os.Truncate(path, cut); err != nil {
			return err
		}
		fmt.Printf("DELIBERATELY CORRUPTED %s: truncated %d -> %d bytes (torn tail)\n", path, info.Size(), cut)
	default:
		return fmt.Errorf("unknown -wal-corrupt mode %q (want flip or truncate)", mode)
	}
	return nil
}
