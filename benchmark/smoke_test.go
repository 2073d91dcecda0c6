package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// Every workload runs through the same code path as the command, with
// 200 ms slices: a traced run (which also measures an untraced phase) must
// emit every metric, lose no request and leak no goroutine.
func TestSmokeEveryWorkload(t *testing.T) {
	tm := timing{replicates: numReplicates, warmup: 100 * time.Millisecond, window: 200 * time.Millisecond}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.cfg.timeScale > 0 {
				// Keep the modelled 2 s reprogram out of the test's time.
				w.cfg.timeScale = 0.05
			}
			o, err := runWorkload(w, 1, tm, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				// In 200 ms the typical request can sit further from the
				// median than the tolerance allows.
				if !strings.HasPrefix(p, "ledger residual") {
					t.Error(p)
				}
			}
			for _, d := range allMetrics() {
				if _, ok := o.metrics[d.Name]; !ok {
					t.Errorf("metric %s not emitted", d.Name)
				}
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%d attempted, %d failed", o.attempted, o.failed)
			}
			if n := o.metrics["runtime.goroutines_leaked"].Value; n != 0 {
				t.Errorf("%v goroutines leaked", n)
			}
			if len(o.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			res := newRunResult(w, 1, 1, 1, o)
			for _, traced := range []bool{false, true} {
				var line struct {
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(contractLine(res, traced)), &line); err != nil {
					t.Fatal(err)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(line.Metrics) != want {
					t.Errorf("contract line (traced=%v) has %d metrics, want %d", traced, len(line.Metrics), want)
				}
			}
		})
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics defined here.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v differs from %s", i, doc.Workloads[i], w.name)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestCompareVerdicts(t *testing.T) {
	set := func(values ...float64) resultFile {
		var rf resultFile
		for _, v := range values {
			rf.Runs = append(rf.Runs, runResult{Workload: "small_local",
				Metrics: map[string]metricValue{"p50_ms": {Value: v}, "throughput_rps": {Value: v}}})
		}
		return rf
	}
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return metricDef{}
	}
	p50, rps := def("p50_ms"), def("throughput_rps")
	for _, c := range []struct {
		name string
		def  metricDef
		a, b resultFile
		want string
	}{
		{"steady", p50, set(1, 1.01, 0.99, 1), set(1.05, 1.04, 1.06, 1.05), verdictWithin},
		{"slower", p50, set(1, 1.01, 0.99, 1), set(1.4, 1.41, 1.39, 1.4), verdictWorse},
		{"faster is not worse", p50, set(1, 1.01, 0.99, 1), set(0.5, 0.51, 0.49, 0.5), verdictWithin},
		{"less throughput", rps, set(100, 101, 99, 100), set(60, 61, 59, 60), verdictWorse},
		{"too noisy to tell", p50, set(1, 1.3, 0.7, 1), set(1, 1.01, 0.99, 1), verdictUnresolved},
	} {
		_, got := verdict(c.def, valuesOf(c.a, "small_local", c.def.Name), valuesOf(c.b, "small_local", c.def.Name))
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	var out strings.Builder
	if code := compareSets(&out, set(1, 1.01, 0.99, 1), set(1.4, 1.41, 1.39, 1.4)); code != 1 {
		t.Errorf("compareSets = %d for a regression, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("table does not say %q:\n%s", verdictWorse, out.String())
	}
}
