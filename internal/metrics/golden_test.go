package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/render.golden from the current Render")

// TestRenderGolden pins the exposition text byte for byte: counters,
// gauges, histograms with and without exemplars, and label values that
// need every escape %q knows. The file was recorded from the fmt-based
// renderer, so a rewrite of Render that changes one byte fails here.
func TestRenderGolden(t *testing.T) {
	oldNow := exemplarNow
	exemplarNow = func() time.Time { return time.Unix(1700000000, 123e6) }
	defer func() { exemplarNow = oldNow }()

	r := NewRegistry()
	r.Counter("bf_tasks_total", "Tasks executed.", Labels{"node": "B", "device": "fpga0"}).Add(12)
	r.Counter("bf_tasks_total", "Tasks executed.", Labels{"node": "A", "device": "fpga1"}).Add(1e21)
	r.Counter("bf_tasks_total", "Tasks executed.", nil).Add(0.1)
	r.Gauge("bf_utilization", "FPGA time utilization.", nil).Set(0.42)
	r.Gauge("bf_escapes", `Help with "quotes" and \.`, Labels{
		"quote": `say "hi"`, "slash": `a\b`, "nl": "two\nlines", "tab": "a\tb",
		"uni": "naïve ☃", "ctl": "\x00\x7f", "empty": "", "bad": "\xff",
	}).Set(-1.5e-7)
	r.Gauge("bf_untouched", "Registered, never set.", Labels{"z": "1"})

	plain := r.Histogram("bf_task_seconds", "Task latency.", Labels{"tenant": "t1"}, []float64{1, 0.1, 0.01})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.1} {
		plain.Observe(v)
	}
	ex := r.Histogram("bf_task_seconds", "Task latency.", Labels{"tenant": `t"2`, "zone": "z"}, nil)
	ex.ObserveExemplar(0.005, "00000000deadbeef")
	ex.Observe(0.05)
	ex.ObserveExemplar(7, `needs "escape"`)
	r.Histogram("bf_task_seconds", "Task latency.", nil, nil)
	def := r.Histogram("bf_default_buckets_seconds", "Default buckets.", Labels{"a": "1", "m": "2"}, nil)
	def.Observe(0.0003)
	def.ObserveExemplar(1e-9, "1")

	got := r.Render()
	path := filepath.Join("testdata", "render.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Render differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
