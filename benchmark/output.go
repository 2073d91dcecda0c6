package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// environment is recorded in every result, so that numbers from different
// machines or toolchains are never compared by accident.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// metricValue is one reported metric: the median over the run's replicates
// with the smallest and largest replicate beside it (all three equal for
// metrics measured once per run).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// runResult is one invocation of the benchmark.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Env       environment            `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is a set of runs: what -append accumulates and -compare reads.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

// allMetrics lists every metric definition, end-to-end first.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

func newRunResult(w workload, seed int64, seconds, trace int, o *runOutcome) runResult {
	res := runResult{
		Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds,
		Env: environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit},
		Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Problems: o.problems, Metrics: make(map[string]metricValue),
	}
	for _, d := range allMetrics() {
		// A NaN cannot be written as JSON; check() has already reported it.
		if st, ok := o.metrics[d.Name]; ok && !math.IsNaN(st.Value+st.Min+st.Max) && !math.IsInf(st.Value+st.Min+st.Max, 0) {
			res.Metrics[d.Name] = metricValue{Value: st.Value, Unit: d.Unit, Min: st.Min, Max: st.Max}
		}
	}
	return res
}

// printTable prints every measured metric by name with its unit.
func printTable(w io.Writer, res runResult) {
	fmt.Fprintf(w, "bfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Env.NumCPU, res.Env.GOMAXPROCS,
		res.Env.GoVersion, res.Env.Commit)
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tvalue\tmin\tmax")
	for _, d := range allMetrics() {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\n", d.Name, m.Unit, m.Value, m.Min, m.Max)
		}
	}
	tw.Flush()
}

// contractLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(res runResult, traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]value)}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil { // a NaN slipped through: report the run as incorrect
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(b)
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResult adds res to the set of runs in path, creating the file.
func appendResult(path string, res runResult) error {
	rf, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, res)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceRequests bounds the spans written out: the trace file is for
// reading single requests, the statistics use every span in memory.
const traceRequests = 2000

// writeTrace writes the traced run's spans, one request after another.
func writeTrace(path string, res runResult, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	kept := make(map[uint32]bool)
	var out []span
	requests := 0
	for _, sp := range spans {
		if sp.Name == spanRequest {
			requests++
		}
		if !kept[sp.Req] {
			if len(kept) == traceRequests {
				continue
			}
			kept[sp.Req] = true
		}
		out = append(out, sp)
	}
	doc := struct {
		Run             runResult `json:"run"`
		RequestsTraced  int       `json:"requests_traced"`
		RequestsWritten int       `json:"requests_written"`
		Spans           []span    `json:"spans"`
	}{res, requests, len(kept), out}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
