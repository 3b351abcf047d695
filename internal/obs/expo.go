package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series, and the
// cumulative-bucket expansion for histograms. Output order is
// deterministic (families by name, series by label set).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Load())
			case kindGauge:
				// snapshot has released the registry mutex, so a GaugeFunc
				// may take its owner's locks here.
				if s.fn != nil {
					fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.fn())
				} else {
					fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.g.Load())
				}
			case kindHistogram:
				writePromHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writePromHistogram expands one histogram series into cumulative _bucket
// lines plus _sum and _count.
func writePromHistogram(w io.Writer, name string, s *series) {
	counts := s.h.BucketCounts()
	bounds := s.h.Bounds()
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(s.labelList, "le", formatFloat(b)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(s.labelList, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(s.h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, s.h.Count())
}

// mergeLabel renders a series' label set with one extra pair inserted in
// sorted key position, so every series line — including histogram bucket
// expansions with their "le" label — keeps label keys sorted and the
// whole exposition stays byte-deterministic.
func mergeLabel(ls []Label, key, value string) string {
	merged := make([]Label, 0, len(ls)+1)
	inserted := false
	for _, l := range ls {
		if !inserted && key < l.Key {
			merged = append(merged, Label{Key: key, Value: value})
			inserted = true
		}
		merged = append(merged, l)
	}
	if !inserted {
		merged = append(merged, Label{Key: key, Value: value})
	}
	return renderSorted(merged)
}

// formatFloat renders a float compactly and deterministically.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
