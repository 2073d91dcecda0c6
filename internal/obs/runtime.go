// Continuous runtime profiling: every BlastFunction binary exports a
// small bf_runtime_* family (goroutines, heap, GC pause, scheduler
// latency) so tail blowups caused by the runtime itself — goroutine
// pileups, heap growth forcing GC, scheduler delay — are attributable
// from the same TSDB as the request metrics, and a ProfileCapture hook
// snapshots pprof evidence the moment an alert fires instead of after
// the incident ends.
package obs

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"blastfunction/internal/metrics"
)

// schedLatencyMetric is the runtime/metrics histogram of time goroutines
// spend runnable before running — the "invisible queue" ahead of every
// request queue.
const schedLatencyMetric = "/sched/latencies:seconds"

// RuntimeCollector samples Go runtime health into a metrics.Registry.
// Series (all prefixed bf_runtime_):
//
//	goroutines                  gauge   current goroutine count
//	heap_alloc_bytes            gauge   live heap
//	heap_objects                gauge   live objects
//	gc_pause_seconds_total      counter cumulative stop-the-world pause
//	gc_cycles_total             counter completed GC cycles
//	sched_latency_seconds{q}    gauge   p50/p99 scheduler latency since start
type RuntimeCollector struct {
	goroutines  metrics.Gauge
	heapAlloc   metrics.Gauge
	heapObjects metrics.Gauge
	gcPause     metrics.Counter
	gcCycles    metrics.Counter
	schedP50    metrics.Gauge
	schedP99    metrics.Gauge

	mu        sync.Mutex
	lastPause time.Duration // PauseTotalNs already accounted
	lastGC    uint32        // NumGC already accounted
	samples   []runtimemetrics.Sample
}

// NewRuntimeCollector creates a collector exporting into reg with the
// given extra labels (may be nil) and takes an initial sample so the
// series exist from the first scrape.
func NewRuntimeCollector(reg *metrics.Registry, labels metrics.Labels) *RuntimeCollector {
	c := &RuntimeCollector{
		goroutines: reg.Gauge("bf_runtime_goroutines",
			"Current number of goroutines.", labels),
		heapAlloc: reg.Gauge("bf_runtime_heap_alloc_bytes",
			"Bytes of live heap objects.", labels),
		heapObjects: reg.Gauge("bf_runtime_heap_objects",
			"Number of live heap objects.", labels),
		gcPause: reg.Counter("bf_runtime_gc_pause_seconds_total",
			"Cumulative GC stop-the-world pause time.", labels),
		gcCycles: reg.Counter("bf_runtime_gc_cycles_total",
			"Completed GC cycles.", labels),
		schedP50: reg.Gauge("bf_runtime_sched_latency_seconds",
			"Scheduler latency quantiles since process start.", withQ(labels, "0.5")),
		schedP99: reg.Gauge("bf_runtime_sched_latency_seconds",
			"Scheduler latency quantiles since process start.", withQ(labels, "0.99")),
		samples: []runtimemetrics.Sample{{Name: schedLatencyMetric}},
	}
	c.SampleOnce()
	return c
}

func withQ(labels metrics.Labels, q string) metrics.Labels {
	out := metrics.Labels{"quantile": q}
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// SampleOnce takes one sample of every series now.
func (c *RuntimeCollector) SampleOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.goroutines.Set(float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapAlloc.Set(float64(ms.HeapAlloc))
	c.heapObjects.Set(float64(ms.HeapObjects))
	pause := time.Duration(ms.PauseTotalNs)
	if d := pause - c.lastPause; d > 0 {
		c.gcPause.Add(d.Seconds())
	}
	c.lastPause = pause
	if d := ms.NumGC - c.lastGC; d > 0 {
		c.gcCycles.Add(float64(d))
	}
	c.lastGC = ms.NumGC
	runtimemetrics.Read(c.samples)
	if h, ok := c.samples[0].Value.Float64Histogram(), c.samples[0].Value.Kind() == runtimemetrics.KindFloat64Histogram; ok && h != nil {
		c.schedP50.Set(histQuantile(h, 0.5))
		c.schedP99.Set(histQuantile(h, 0.99))
	}
}

// Goroutines returns the goroutine count as of the last SampleOnce.
func (c *RuntimeCollector) Goroutines() int { return int(c.goroutines.Value()) }

// Run samples on the interval until ctx is cancelled (0 picks 5s).
func (c *RuntimeCollector) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.SampleOnce()
		}
	}
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram.
// Bucket boundaries may include ±Inf; the estimate clamps to the nearest
// finite boundary like Prometheus does.
func histQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			if ub := h.Buckets[i+1]; !math.IsInf(ub, 0) {
				return ub
			}
			return h.Buckets[i]
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 0) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return last
}

// captureInterval rate-limits captures per tag: a rule that stays firing
// across evaluations produces one snapshot per interval, not one per
// tick.
const captureInterval = 30 * time.Second

// ProfileCapture writes pprof snapshots to a directory when triggered —
// the alert engine's OnFire hook calls Capture so goroutine and heap
// evidence exists from the moment a burn-rate or leak rule fires.
type ProfileCapture struct {
	// Dir receives the snapshot files. Created on first capture.
	Dir string
	// Now is injectable for tests.
	Now func() time.Time

	mu   sync.Mutex
	last map[string]time.Time
}

// Capture snapshots the goroutine and heap profiles, tagged with the
// triggering rule's name. It returns the written file paths, or nil when
// rate-limited.
func (p *ProfileCapture) Capture(tag string) ([]string, error) {
	if p == nil || p.Dir == "" {
		return nil, nil
	}
	now := time.Now
	if p.Now != nil {
		now = p.Now
	}
	tag = sanitizeTag(tag)
	t := now()
	p.mu.Lock()
	if last, ok := p.last[tag]; ok && t.Sub(last) < captureInterval {
		p.mu.Unlock()
		return nil, nil
	}
	if p.last == nil {
		p.last = make(map[string]time.Time)
	}
	p.last[tag] = t
	p.mu.Unlock()

	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, err
	}
	stamp := t.UTC().Format("20060102T150405.000")
	var paths []string
	for _, prof := range []string{"goroutine", "heap"} {
		path := filepath.Join(p.Dir, fmt.Sprintf("%s-%s.%s.pprof", stamp, tag, prof))
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		err = pprof.Lookup(prof).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// SanitizeTag keeps file names shell- and URL-safe — shared with the
// flight recorder's explain-report capture so incident artifacts follow
// one naming scheme.
func SanitizeTag(tag string) string { return sanitizeTag(tag) }

// sanitizeTag keeps file names shell- and URL-safe.
func sanitizeTag(tag string) string {
	if tag == "" {
		return "alert"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, tag)
}

// SortedFiles lists the capture directory's snapshot files, oldest
// first — what blastctl or an operator tars up after an incident.
func (p *ProfileCapture) SortedFiles() []string {
	if p == nil || p.Dir == "" {
		return nil
	}
	entries, err := os.ReadDir(p.Dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".pprof") {
			out = append(out, filepath.Join(p.Dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}
