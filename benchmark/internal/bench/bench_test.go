package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// smoke runs one workload at smoke scale and returns its result and, for a
// traced run, the exact counters from the trace file.
func smoke(t *testing.T, workload string, seed int64, trace bool) (Result, map[string]float64) {
	t.Helper()
	dir := t.TempDir()
	res, err := Run(Config{
		Workload: workload, Seed: seed, Seconds: 1, Trace: trace, Scale: ScaleSmoke,
		OutDir: filepath.Join(dir, "out"), Scratch: filepath.Join(dir, "scratch"),
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", workload, seed, trace, res.Correct, res.Attempted, res.Failed)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "scratch", "*")); len(left) != 0 {
		t.Errorf("%s: scratch files left behind: %v", workload, left)
	}
	if !trace {
		return res, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, "out", "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Errorf("%s: trace file has no spans", workload)
	}
	for i, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Parent >= int32(i) {
			t.Fatalf("%s: span %d malformed: %+v", workload, i, s)
		}
		if s.Replay && s.Parent < 0 {
			t.Fatalf("%s: span %d is a replayed rung without the entry call that caused it: %+v", workload, i, s)
		}
	}
	return res, tf.Counts
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func names(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Same seed: identical exact counters across two runs in one process.
// Different seed: a different stream. And the emitted metric names are
// exactly the ones BENCHMARK.json lists.
func TestRunsRepeatAndMatchSpec(t *testing.T) {
	spec, err := ReadSpec(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer, wantWorkloads []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		// BENCHMARK.json has no key for them, so the fixed operation counts
		// and the seed argument are recorded in each workload's why.
		size, err := sizingFor(w.Name, ScaleFull)
		if err != nil {
			t.Fatal(err)
		}
		counts := fmt.Sprintf("rows=%d ops/s=%d traceOps=%d warmup=%d", size.rows, size.opsPerSecond, size.traceOps, size.warmup)
		if !strings.Contains(w.Why, counts) || !strings.Contains(w.Why, "--seed") {
			t.Errorf("BENCHMARK.json: why of %s does not record %q and --seed: %q", w.Name, counts, w.Why)
		}
	}
	slices.Sort(wantE2E)
	slices.Sort(wantLayer)
	if !reflect.DeepEqual(wantWorkloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wantWorkloads, Workloads)
	}

	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			e2e, _ := smoke(t, w, 1, false)
			layer, first := smoke(t, w, 1, true)
			_, again := smoke(t, w, 1, true)
			_, other := smoke(t, w, 2, true)

			if !reflect.DeepEqual(first, again) {
				t.Errorf("seed 1 twice: exact counters differ\n first %v\n again %v", first, again)
			}
			if reflect.DeepEqual(first, other) {
				t.Errorf("seeds 1 and 2 produced identical counters %v", first)
			}
			if len(first) == 0 {
				t.Error("traced run recorded no exact counters")
			}
			for _, res := range []Result{e2e, layer} {
				for name, m := range res.Metrics {
					if !metricName.MatchString(name) || len(name) > 64 {
						t.Errorf("bad metric name %q", name)
					}
					if m.Unit == "" {
						t.Errorf("metric %q has no unit", name)
					}
				}
			}
			if got := names(e2e.Metrics); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics\n got  %v\n want %v", got, wantE2E)
			}
			if got := names(layer.Metrics); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("per-layer metrics\n got  %v\n want %v", got, wantLayer)
			}
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
		})
	}
}

func TestStreamsFollowSeed(t *testing.T) {
	a, b, c := rangeStream(7, 1<<20, 64), rangeStream(7, 1<<20, 64), rangeStream(8, 1<<20, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different range stream")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seed, same range stream")
	}
	if !reflect.DeepEqual(zipfPicks(7, 256), zipfPicks(7, 256)) || reflect.DeepEqual(zipfPicks(7, 256), zipfPicks(8, 256)) {
		t.Error("zipf picks do not follow the seed")
	}
}

func TestRecorderPercentilesAreExact(t *testing.T) {
	r := newRecorder(100)
	for _, v := range rand.New(rand.NewSource(1)).Perm(100) {
		r.add(int64(v + 1)) // 1..100 in random order
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := r.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if r.ns[0] == 1 && r.ns[1] == 2 && r.ns[2] == 3 {
		t.Error("percentile sorted the recorder in place: sample order is needed for slicing")
	}
}

func TestOraclesAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const domain = 500
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	brute := func(lo, hi int64) (n int, rows []int32) {
		for i, v := range vals {
			if v >= lo && v <= hi {
				n++
				rows = append(rows, int32(i))
			}
		}
		return n, rows
	}
	sorted, byRow := newSortedOracle(vals), newRowOracle(vals)
	fw := newFenwickFrom(domain+100, vals[:1000])
	for _, v := range vals[1000:] {
		fw.add(v)
	}
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(60)
		n, rows := brute(lo, hi)
		if got := sorted.count(lo, hi); got != n {
			t.Fatalf("sorted oracle [%d,%d] = %d, want %d", lo, hi, got, n)
		}
		if got := fw.count(lo, hi); got != n {
			t.Fatalf("fenwick [%d,%d] = %d, want %d", lo, hi, got, n)
		}
		if got := byRow.count(lo, hi); got != n {
			t.Fatalf("row oracle count [%d,%d] = %d, want %d", lo, hi, got, n)
		}
		want := rows[:min(10, len(rows))]
		if got := byRow.firstRows(lo, hi, 10); !slices.Equal(got, want) {
			t.Fatalf("row oracle first rows [%d,%d] = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
			{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "noisy", "unit": "us", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat, rate float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			wobble := 1 + 0.002*float64(i)
			res := Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{
				"lat": {lat * wobble, "us"}, "rate": {rate * wobble, "1/s"}, "noisy": {100 * float64(1+i), "us"},
			}}
			if err := AppendRun(path, "w", int64(i), false, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 100, 1000), write("b.jsonl", 120, 1050)
	var out bytes.Buffer
	worse, err := Compare(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20% slower latency against a 10% bound was not reported worse")
	}
	lines := strings.Split(out.String(), "\n")
	for metric, verdict := range map[string]string{"lat": "worse", "rate": "ok", "noisy": "unresolved"} {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q in %q", metric, f[len(f)-1], verdict, l)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}
}
