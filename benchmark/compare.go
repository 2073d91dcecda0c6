package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictWithin     = "within"     // b's median is not worse than a's by more than the bound
	verdictWorse      = "worse"      // it is
	verdictUnresolved = "unresolved" // a set's own spread is wider than the bound: neither can be said
)

// compareFiles prints, per workload and metric, both sets' medians, the
// relative change, the bound and the verdict. It returns 1 if any
// end-to-end metric is worse or unresolved, so scripts can gate on it.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2]resultFile
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readResults(path); err != nil {
			fmt.Fprintln(w, "bfbench:", err)
			return 2
		}
	}
	return compareSets(w, sets[0], sets[1])
}

// valuesOf collects one metric's values over a set's runs of a workload.
func valuesOf(rf resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// relChange is b's median relative to a's; two equal medians (two zeros
// included) have not changed.
func relChange(a, b []float64) float64 {
	ma, mb := median(a), median(b)
	if ma == mb {
		return 0
	}
	return (mb - ma) / math.Abs(ma)
}

// verdict judges b against a for a metric with a regression bound.
func verdict(d metricDef, a, b []float64) (change float64, v string) {
	change = relChange(a, b)
	worse := change
	if d.Better == higher {
		worse = -change
	}
	switch {
	case math.Max(quartileSpread(a), quartileSpread(b)) > d.Bound:
		return change, verdictUnresolved
	case worse > d.Bound:
		return change, verdictWorse
	}
	return change, verdictWithin
}

func compareSets(w io.Writer, a, b resultFile) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (n)\tb (n)\tchange\tspread a\tspread b\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range allMetrics() {
			va, vb := valuesOf(a, wl.name, d.Name), valuesOf(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change := relChange(va, vb)
			bound, v := "-", "" // per-layer metrics have no bound
			if d.Bound > 0 {
				change, v = verdict(d, va, vb)
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				if v != verdictWithin {
					code = 1
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\t%s\n",
				wl.name, d.Name, d.Unit, median(va), len(va), median(vb), len(vb),
				change*100, quartileSpread(va)*100, quartileSpread(vb)*100, bound, v)
		}
	}
	tw.Flush()
	return code
}
