// Command adskip-benchmark runs one workload of the repository benchmark
// per invocation and prints its metrics as the last line of standard
// output (see ../../README.md). It is one process: the served workload
// runs its server and clients in-process, nothing is forked or left
// listening.
//
//	adskip-benchmark --workload skip-clustered --seed 1 --seconds 10 --trace 0
//	adskip-benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"adskip/benchmark/internal/bench"
)

// watchdogLimit bounds one run. The benchmark contract gives a run 180 s;
// the watchdog fires early enough to clean up and still exit inside it.
const watchdogLimit = 165 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: skip-clustered|scan-uniform|served-zipf|ingest-mixed")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 10, "requested length of the timed window; fixes the operation count")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		scale    = flag.String("scale", "full", "full|smoke")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
		scratch  = flag.String("scratch", ".bench_build", "parent directory for this run's scratch files (WAL)")
		record   = flag.String("record", "", "append this run, tagged with workload and seed, to a run-set file for -compare")
		compare  = flag.Bool("compare", false, "compare two run-set files given as arguments against the bounds in -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: adskip-benchmark -compare a.jsonl b.jsonl")
		}
		worse, err := bench.Compare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}

	// Everything the run writes outside -out lives under one directory of
	// its own, so every exit path — the watchdog's and a signal's too — can
	// remove it. A run that was killed outright could not: sweep what such
	// runs left before starting.
	sweepStale(*scratch)
	root := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	var phase atomic.Value
	phase.Store("start")
	go func() {
		time.Sleep(watchdogLimit)
		fmt.Fprintf(os.Stderr, "adskip-benchmark: watchdog: still in phase %q after %s, giving up\n", phase.Load(), watchdogLimit)
		os.RemoveAll(root)
		os.Exit(2)
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "adskip-benchmark: %v in phase %q, cleaning up\n", sig, phase.Load())
		os.RemoveAll(root)
		os.Exit(3)
	}()

	res, err := bench.Run(bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Scale: bench.Scale(*scale), OutDir: *outDir, Scratch: root, Log: os.Stderr, Phase: &phase,
	})
	if rerr := os.RemoveAll(root); rerr != nil && err == nil {
		err = fmt.Errorf("remove scratch: %w", rerr)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *record != "" {
		if err := bench.AppendRun(*record, *workload, *seed, *trace == 1, res); err != nil {
			fatalf("record: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// sweepStale removes the run-<pid> directories under scratch whose process
// no longer exists.
func sweepStale(scratch string) {
	dirs, _ := filepath.Glob(filepath.Join(scratch, "run-*"))
	for _, dir := range dirs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "run-"))
		if err != nil || pid == os.Getpid() {
			continue
		}
		if errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintf(os.Stderr, "adskip-benchmark: stale scratch %s: %v\n", dir, err)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adskip-benchmark: "+format+"\n", args...)
	os.Exit(1)
}
