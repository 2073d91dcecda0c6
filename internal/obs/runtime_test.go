package obs

import (
	"strings"
	"testing"
	"time"

	"blastfunction/internal/metrics"
)

func TestRuntimeCollectorSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewRuntimeCollector(reg, metrics.Labels{"component": "test"})
	c.SampleOnce()
	text := reg.Render()
	for _, want := range []string{
		"bf_runtime_goroutines",
		"bf_runtime_heap_alloc_bytes",
		"bf_runtime_heap_objects",
		"bf_runtime_gc_pause_seconds_total",
		"bf_runtime_gc_cycles_total",
		`bf_runtime_sched_latency_seconds{component="test",quantile="0.5"}`,
		`bf_runtime_sched_latency_seconds{component="test",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if c.Goroutines() < 1 {
		t.Fatalf("goroutines %d", c.Goroutines())
	}
	// The render parses cleanly, so the series reach a TSDB via scrape.
	if _, err := metrics.Parse(text); err != nil {
		t.Fatalf("self-render does not parse: %v", err)
	}
}

func TestRuntimeCollectorGCPauseMonotone(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewRuntimeCollector(reg, nil)
	c.SampleOnce()
	v1, _ := valueOf(t, reg, "bf_runtime_gc_pause_seconds_total")
	c.SampleOnce()
	v2, _ := valueOf(t, reg, "bf_runtime_gc_pause_seconds_total")
	if v2 < v1 {
		t.Fatalf("gc pause counter went backwards: %v -> %v", v1, v2)
	}
}

func valueOf(t *testing.T, reg *metrics.Registry, name string) (float64, bool) {
	t.Helper()
	samples, err := metrics.Parse(reg.Render())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

func TestProfileCaptureWritesAndRateLimits(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1700000000, 0)
	p := &ProfileCapture{Dir: dir, Now: func() time.Time { return now }}

	paths, err := p.Capture("SLOFastBurn")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths %v", paths)
	}
	for _, path := range paths {
		if !strings.Contains(path, "SLOFastBurn") || !strings.HasSuffix(path, ".pprof") {
			t.Fatalf("path %q", path)
		}
	}

	// Same tag within captureInterval: rate-limited, no files.
	paths, err = p.Capture("SLOFastBurn")
	if err != nil || paths != nil {
		t.Fatalf("rate limit: paths=%v err=%v", paths, err)
	}
	// Different tag captures immediately.
	now = now.Add(time.Second)
	if paths, err = p.Capture("GoroutineLeak"); err != nil || len(paths) != 2 {
		t.Fatalf("second tag: paths=%v err=%v", paths, err)
	}
	// Past the interval the original tag captures again.
	now = now.Add(time.Minute)
	if paths, err = p.Capture("SLOFastBurn"); err != nil || len(paths) != 2 {
		t.Fatalf("after interval: paths=%v err=%v", paths, err)
	}
	if got := len(p.SortedFiles()); got != 6 {
		t.Fatalf("files on disk: %d", got)
	}

	var disabled *ProfileCapture
	if paths, err := disabled.Capture("x"); paths != nil || err != nil {
		t.Fatalf("nil capture: %v %v", paths, err)
	}
}

func TestSanitizeTag(t *testing.T) {
	if got := sanitizeTag("a/b c%"); got != "a-b-c-" {
		t.Fatalf("sanitized %q", got)
	}
	if got := sanitizeTag(""); got != "alert" {
		t.Fatalf("empty tag %q", got)
	}
}
