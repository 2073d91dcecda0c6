package metrics

import (
	"bytes"
	"fmt"
	"log"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHeldHandlesDoNotAllocate is the budget DESIGN.md gives a hot path:
// it resolves its series once, and recording into a held handle is a lock
// and a store. (Finding an existing series again allocates nothing either,
// but it still renders the label set and takes the family lock.)
func TestHeldHandlesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bf_requests_total", "Requests.", Labels{"function": "f"})
	g := r.Gauge("bf_depth", "Depth.", Labels{"function": "f"})
	h := r.Histogram("bf_latency_seconds", "Latency.", Labels{"function": "f"}, nil)
	lbl := Labels{"function": "f"}
	for name, record := range map[string]func(){
		"a look-up that hits":       func() { r.Counter("bf_requests_total", "Requests.", lbl) },
		"Counter.Inc":               func() { c.Inc() },
		"Gauge.Set":                 func() { g.Set(3) },
		"Histogram.Observe":         func() { h.Observe(0.003) },
		"Histogram.ObserveExemplar": func() { h.ObserveExemplar(0.003, "") },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, n)
		}
	}
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("nothing was recorded")
	}
}

// TestOneNameTwoTypes: a name registered as one type and asked for as
// another is a wiring bug. The second caller gets a working handle that no
// scrape sees — not, as it once did, a handle into the first family — and
// the mistake is logged.
func TestOneNameTwoTypes(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(log.Default().Writer())

	r := NewRegistry()
	c := r.Counter("bf_thing", "A counter.", Labels{"a": "1"})
	c.Add(2)
	g := r.Gauge("bf_thing", "A gauge?", Labels{"a": "1"})
	g.Set(40)
	h := r.Histogram("bf_thing", "A histogram?", Labels{"a": "1"}, nil)
	h.Observe(1)
	if c.Value() != 2 || g.Value() != 40 || h.Count() != 1 {
		t.Fatalf("handles share state: counter %v, gauge %v, histogram count %d", c.Value(), g.Value(), h.Count())
	}
	want := "# HELP bf_thing A counter.\n# TYPE bf_thing counter\nbf_thing{a=\"1\"} 2\n"
	if got := r.Render(); got != want {
		t.Fatalf("render = %q, want only the first registration %q", got, want)
	}
	for _, typ := range []string{"gauge", "histogram"} {
		if !strings.Contains(logged.String(), "bf_thing is registered as a counter; the "+typ) {
			t.Errorf("no log line for the %s: %q", typ, logged.String())
		}
	}
	// The first type keeps working under its name.
	r.Counter("bf_thing", "A counter.", Labels{"a": "1"}).Inc()
	if c.Value() != 3 {
		t.Fatalf("counter lost its series: %v", c.Value())
	}
}

// TestRenderWhileObservingAndRegistering is a scrape in the middle of
// traffic, run under -race: eight goroutines record into held handles, two
// keep creating series in the families being rendered, and every document
// a concurrent Render produces must parse.
func TestRenderWhileObservingAndRegistering(t *testing.T) {
	r := NewRegistry()
	var (
		wg      sync.WaitGroup
		renders atomic.Int32 // documents rendered so far; the writers run until the last
	)
	for w := 0; w < 8; w++ {
		h := r.Histogram("bf_latency_seconds", "Latency.", Labels{"worker": fmt.Sprint(w)}, nil)
		c := r.Counter("bf_requests_total", "Requests.", Labels{"worker": fmt.Sprint(w)})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; renders.Load() < 20; i++ {
				h.ObserveExemplar(float64(i%100)/1000, strings.Repeat("a", i%2*16))
				c.Inc()
				if i%64 == 0 {
					runtime.Gosched() // two CPUs, ten writers: let the scrape run
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lbl := Labels{"worker": fmt.Sprintf("new-%d-%d", w, i)}
				r.Histogram("bf_latency_seconds", "Latency.", lbl, nil).Observe(1)
				r.Counter("bf_requests_total", "Requests.", lbl).Inc()
				r.Gauge(fmt.Sprintf("bf_family_%d_%d", w, i), "A new family.", nil).Set(1)
				runtime.Gosched()
			}
		}(w)
	}
	for ; renders.Load() < 20; renders.Add(1) {
		samples, err := Parse(r.Render())
		if err != nil {
			t.Errorf("render %d does not parse: %v", renders.Load(), err)
		} else if len(samples) < 8*(len(DefaultLatencyBuckets)+3)+8 {
			t.Errorf("render %d has %d samples, fewer than the eight held series alone", renders.Load(), len(samples))
		}
	}
	wg.Wait()
	samples, err := Parse(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, s := range samples {
		series[s.SeriesKey()] = true
	}
	for _, want := range []string{
		`bf_requests_total{worker="new-1-99"}`,
		`bf_latency_seconds_count{worker="new-0-0"}`,
		`bf_latency_seconds_bucket{le="+Inf",worker="7"}`,
		`bf_family_1_99`,
	} {
		if !series[want] {
			t.Errorf("final render lacks %s", want)
		}
	}
}
