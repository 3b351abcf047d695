package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// A run set is a file of JSON lines, one per run, written with -record.
// -compare reads two of them — two complete sets of runs of one commit, or
// of a parent and a change — and judges every end-to-end metric of every
// workload against the bound BENCHMARK.json fixes for it.

// runRecord is one line of a run-set file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// AppendRun appends one run to a run-set file.
func AppendRun(path, workload string, seed int64, trace bool, res Result) error {
	line, err := json.Marshal(runRecord{Workload: workload, Seed: seed, Trace: trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Spec is the part of BENCHMARK.json the benchmark itself reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRunSet returns the untraced runs' values by workload and metric.
func readRunSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s line %d: run of %s seed %d had %d failed operations", path, n, rec.Workload, rec.Seed, rec.Result.Failed)
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Compare prints, per workload and end-to-end metric, both sets' medians,
// the relative difference of b against a (positive = worse), the bound,
// each set's spread (interquartile range over median) and a verdict:
// "unresolved" when either spread is wider than the bound, "worse" when b
// is worse than a by more than the bound, else "ok". It reports whether
// any metric was worse.
func Compare(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	spec, err := ReadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRunSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(bPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (n)\tb (n)\tb vs a\tbound\tspread a\tspread b\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\t-\t-\tmissing\n", wl.Name, m.Name, m.Bound*100)
				continue
			}
			a1, ma, a3 := quartiles(va)
			b1, mb, b3 := quartiles(vb)
			diff := (mb - ma) / ma
			if m.Better == "higher" {
				diff = -diff
			}
			spreadA, spreadB := (a3-a1)/ma, (b3-b1)/mb
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			case diff > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g %s (%d)\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, len(va), mb, m.Unit, len(vb), diff*100, m.Bound*100, spreadA*100, spreadB*100, verdict)
		}
	}
	return worse, tw.Flush()
}
