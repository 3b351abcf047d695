// Package bench is the repository benchmark: four seeded workloads run
// against the public entry points of adskip, an untraced run that yields
// the end-to-end metrics and a traced run that yields the per-layer ones.
// Everything the program under test sees is generated from the seed; the
// benchmark owns the clocks, the oracle and the spans.
package bench

import "fmt"

// Workload names, in the order BENCHMARK.json lists them.
const (
	SkipClustered = "skip-clustered"
	ScanUniform   = "scan-uniform"
	ServedZipf    = "served-zipf"
	IngestMixed   = "ingest-mixed"
)

// Workloads lists every workload name.
var Workloads = []string{SkipClustered, ScanUniform, ServedZipf, IngestMixed}

// Fixed shape of the workloads. These are part of the benchmark's
// definition: changing one changes what every recorded number means.
const (
	selectivity  = 0.01 // each range covers 1% of the value domain
	hotFrac      = 0.10 // hot ranges stay inside 10% of the domain ...
	hotStart     = 0.20 // ... which starts here, for every seed
	clusterBands = 64   // value bands of the clustered column (in-process workloads)
	streamLen    = 8192 // distinct predicates per in-process stream (cycled)

	ladderEvery  = 16 // the traced run replays the ladder on 1 in 16 operations
	windowSlices = 5  // a timed window is cut into this many equal slices
	setupRuns    = 5  // set-up is repeated and setup_s is the median

	servedBands     = 256  // value bands of the served table: a 1% range spans 3-4 of them, so a template's cost depends little on where the seed put it
	servedConns     = 2    // closed-loop client connections (= nproc of the reference box)
	servedTemplates = 1024 // 4x the server's 256-entry statement cache
	servedZipfS     = 1.2
	servedLimit     = 100 // LIMIT of the ORDER BY seq templates
	servedPicks     = 1 << 16

	ingestBatch    = 256 // rows per AppendRowsAsync call
	ingestPipeline = 8   // commit of batch i-8 is awaited before batch i
	ingestTailQ    = 4   // per cycle: ranges on the most recent 5% of seq
	ingestUniformQ = 4   // per cycle: ranges uniform on v
	ingestTailFrac = 0.05
	ingestJitter   = 512 // appended v = row index +- jitter: near-ordered
	ingestCycleOps = 1 + ingestTailQ + ingestUniformQ
)

// Scale selects the data and run sizes.
type Scale string

const (
	// ScaleFull is what BENCHMARK.json's numbers are measured at.
	ScaleFull Scale = "full"
	// ScaleSmoke is a seconds-long miniature for the package's tests.
	ScaleSmoke Scale = "smoke"
)

// sizing is one workload's size at one scale. Run lengths are operation
// counts, not durations, so two runs of one commit do identical work and
// the program's counters repeat exactly: an untraced window runs
// opsPerSecond x --seconds operations (sized on this commit so the window
// lasts about --seconds on the 2-core reference box), the traced run a
// fixed prefix of traceOps.
type sizing struct {
	rows         int // base table rows
	opsPerSecond int // untraced operations per requested second
	traceOps     int // operations in the traced prefix (and in its untraced twin)
	warmup       int // queries run before the window, untimed: the zonemap splits here
}

func sizingFor(workload string, scale Scale) (sizing, error) {
	full := map[string]sizing{
		SkipClustered: {rows: 1 << 21, opsPerSecond: 8000, traceOps: 16384, warmup: 2048},
		ScanUniform:   {rows: 1 << 21, opsPerSecond: 160, traceOps: 1000, warmup: 64},
		ServedZipf:    {rows: 1 << 20, opsPerSecond: 4000, traceOps: 8192, warmup: 2048},
		IngestMixed:   {rows: 1 << 20, opsPerSecond: 9 * 2000, traceOps: 9 * 2048, warmup: 4096},
	}
	smoke := map[string]sizing{
		SkipClustered: {rows: 1 << 18, opsPerSecond: 400, traceOps: 512, warmup: 256},
		ScanUniform:   {rows: 1 << 18, opsPerSecond: 100, traceOps: 128, warmup: 64},
		ServedZipf:    {rows: 1 << 18, opsPerSecond: 400, traceOps: 512, warmup: 256},
		IngestMixed:   {rows: 1 << 17, opsPerSecond: 9 * 40, traceOps: 9 * 64, warmup: 256},
	}
	m := full
	switch scale {
	case ScaleFull:
	case ScaleSmoke:
		m = smoke
	default:
		return sizing{}, fmt.Errorf("unknown scale %q (full|smoke)", scale)
	}
	s, ok := m[workload]
	if !ok {
		return sizing{}, fmt.Errorf("unknown workload %q (one of %v)", workload, Workloads)
	}
	return s, nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// EndToEnd lists the metrics an untraced run prints, all on every workload.
// The caller-observed timings are not among them: raw wall-clock on the
// shared reference box spreads 11-35% of the median between runs, wider than
// any bound worth gating on, so they are reported with the per-layer metrics
// (and printed, with their sample counts, on the untraced run's stderr).
var EndToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// PerLayer lists the metrics a traced run prints. A layer the workload
// does not pass through reports 0.
var PerLayer = []metricDef{
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
	{"queries_per_s", "1/s"},
	{"scan.ns_per_row", "ns"},
	{"scan.gb_per_s", "GB/s"},
	{"scan.rows_per_query", "count"},
	{"expr.lower_ns", "ns"},
	{"adaptive.probe_ns", "ns"},
	{"adaptive.probe_ns_per_zone", "ns"},
	{"adaptive.zones_probed_per_query", "count"},
	{"adaptive.windows_per_query", "count"},
	{"adaptive.skipped_row_frac", "ratio"},
	{"adaptive.zones", "count"},
	{"adaptive.metadata_bytes", "bytes"},
	{"adaptive.splits", "count"},
	{"adaptive.merges", "count"},
	{"adaptive.enabled", "count"},
	{"adaptive.queries_to_quiesce", "count"},
	{"zonemap.probe_ns", "ns"},
	{"zonemap.zones_probed_per_query", "count"},
	{"ref.static.query_us", "us"},
	{"ref.none.query_us", "us"},
	{"engine.query_us", "us"},
	{"engine.self_us", "us"},
	{"engine.feedback_ns", "ns"},
	{"engine.allocs_per_query", "count"},
	{"engine.bytes_per_query", "bytes"},
	{"engine.append_ns_per_row", "ns"},
	{"sql.parse_ns", "ns"},
	{"sql.plan_ns", "ns"},
	{"sql.fingerprint_ns", "ns"},
	{"sql.exec_self_us", "us"},
	{"stats.attribution_ns", "ns"},
	{"shard.query_us", "us"},
	{"shard.orderby_query_us", "us"},
	{"shard.shards_pruned_per_query", "count"},
	{"proto.encode_ns", "ns"},
	{"proto.decode_ns", "ns"},
	{"proto.bytes_per_response", "bytes"},
	{"client.rtt_us", "us"},
	{"server.total_us", "us"},
	{"server.queue_us", "us"},
	{"server.parse_plan_us", "us"},
	{"server.prune_us", "us"},
	{"server.scan_us", "us"},
	{"server.serialize_us", "us"},
	{"server.dispatch_us", "us"},
	{"wire.network_us", "us"},
	{"server.stmt_cache_hit_ratio", "ratio"},
	{"ingest.append_rows_per_s", "1/s"},
	{"ingest.append_p95_us", "us"},
	{"wal.append_us", "us"},
	{"wal.commit_wait_us", "us"},
	{"wal.syncs", "count"},
	{"wal.rows_per_sync", "count"},
	{"wal.bytes_per_row", "bytes"},
	{"wal.overhead_ns_per_row", "ns"},
	{"wal.recover_rows_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}
