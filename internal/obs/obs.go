// Package obs is BlastFunction's lightweight distributed-tracing
// subsystem: the per-request, cross-component view the paper's evaluation
// needs to decompose an accelerated call into library, network, queue and
// board time.
//
// The model is deliberately small. The Remote Library samples a trace at
// the first operation of each flush-formed task; every operation of the
// task shares the TraceID and gets its own SpanID. The IDs ride to the
// Device Manager as trailing wire fields (byte-identical frames when
// tracing is off), and each component records completed Spans for its
// stage — client call issue, RPC send, deferred-ack wait, central-queue
// wait, worker execution, notification delivery — into a per-process
// bounded ring served at /debug/spans. Per-stage latencies feed
// bf_stage_seconds histograms when a metrics.Registry is attached, so the
// Accelerators Registry's Metrics Gatherer scrapes the decomposition
// alongside the utilization series.
//
// A nil *Tracer is valid everywhere and records nothing: the hot path's
// tracing tax when disabled is one nil check.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/metrics"
)

// TraceID identifies one end-to-end request (one flush-formed task and
// the client calls that built it). Zero means untraced.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span" (used
// for absent parents).
type SpanID uint64

// MarshalJSON renders the ID as a fixed-width hex string, the form
// blastctl accepts back.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(id)) + `"`), nil
}

// UnmarshalJSON parses the hex form.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseTraceID(s)
	*id = v
	return err
}

// MarshalJSON renders the ID as a fixed-width hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(id)) + `"`), nil
}

// UnmarshalJSON parses the hex form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	*id = SpanID(v)
	return err
}

// ParseTraceID parses the hex form produced by MarshalJSON (and printed
// by blastctl).
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// String renders the ID in its canonical hex form.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID in its canonical hex form.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Span is one completed stage of a traced request. Spans are recorded
// whole (at their end), never mutated, so the ring needs no per-span
// locking.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	// Component names the process role that recorded the span
	// ("library", "manager", "gateway").
	Component string `json:"component"`
	// Stage names what the span measures ("call", "send", "ack-wait",
	// "task", "queue-wait", "execute", "op", "notify").
	Stage string `json:"stage"`
	// Note carries small free-form context (operation kind, method name).
	Note     string        `json:"note,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// Config parameterizes a Tracer.
type Config struct {
	// Component stamps every span this tracer records.
	Component string
	// SampleRate is the fraction of new traces Sample starts, 0..1.
	// Zero (or negative) never samples — components that only continue
	// traces started elsewhere (the Device Manager) leave it zero.
	SampleRate float64
	// RingSize bounds the span ring; 0 selects 4096.
	RingSize int
	// Registry, when set, receives per-stage bf_stage_seconds histogram
	// series labelled with Labels plus {component, stage}.
	Registry *metrics.Registry
	// Labels are added to every exported stage histogram series.
	Labels metrics.Labels
}

// Tracer samples traces, allocates span IDs, and keeps the component's
// bounded span ring. All methods are safe on a nil receiver (no-ops), so
// call sites need no tracing-enabled branches.
type Tracer struct {
	component string
	threshold uint64        // sample iff rand() < threshold; 0 never, MaxUint64 always
	rng       atomic.Uint64 // splitmix64 state shared by sampling and ID allocation

	mu   sync.Mutex
	size int    // ring capacity
	buf  []Span // grows to size on demand, then wraps: an idle tracer holds no ring
	next int    // oldest slot once len(buf) == size

	// evicted counts ring overwrites per trace, so /debug/spans can tell
	// a caller its timeline is partial instead of silently rendering
	// gaps. Bounded: at capacity the map resets and evictedOther absorbs
	// everything already counted.
	evicted      map[TraceID]int
	evictedOther int

	reg    *metrics.Registry
	labels metrics.Labels
	hmu    sync.Mutex
	hists  map[string]metrics.Histogram
}

// evictedCap bounds the per-trace eviction map.
const evictedCap = 4096

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.Component == "" {
		cfg.Component = "unknown"
	}
	t := &Tracer{
		component: cfg.Component,
		size:      cfg.RingSize,
		reg:       cfg.Registry,
		labels:    cfg.Labels,
		hists:     make(map[string]metrics.Histogram),
	}
	switch {
	case cfg.SampleRate <= 0:
		t.threshold = 0
	case cfg.SampleRate >= 1:
		t.threshold = math.MaxUint64
	default:
		t.threshold = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	// A fixed seed: IDs only need to be unique, not secret.
	t.rng.Store(0x9bf_157a6e_5bf15)
	return t
}

// rand draws the next pseudo-random word (splitmix64: a lock-free atomic
// add plus mixing, cheap enough for the per-operation hot path).
func (t *Tracer) rand() uint64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample decides whether a new request is traced: it returns a fresh
// nonzero TraceID with probability SampleRate, else zero.
func (t *Tracer) Sample() TraceID {
	if t == nil || t.threshold == 0 {
		return 0
	}
	if t.threshold != math.MaxUint64 && t.rand() >= t.threshold {
		return 0
	}
	id := t.rand()
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// NewSpan allocates a span ID. IDs are random so spans minted by
// different processes for the same trace do not collide.
func (t *Tracer) NewSpan() SpanID {
	if t == nil {
		return 0
	}
	id := t.rand()
	if id == 0 {
		id = 1
	}
	return SpanID(id)
}

// Record stores one completed span in the ring and observes its duration
// into the stage histogram. Spans without a trace are dropped.
func (t *Tracer) Record(sp Span) {
	if t == nil || sp.Trace == 0 {
		return
	}
	if sp.Component == "" {
		sp.Component = t.component
	}
	t.mu.Lock()
	if len(t.buf) < t.size {
		t.buf = append(t.buf, sp)
	} else {
		if t.evicted == nil {
			t.evicted = make(map[TraceID]int)
		} else if len(t.evicted) >= evictedCap {
			for _, n := range t.evicted {
				t.evictedOther += n
			}
			t.evicted = make(map[TraceID]int)
		}
		t.evicted[t.buf[t.next].Trace]++
		t.buf[t.next] = sp
		t.next = (t.next + 1) % t.size
	}
	t.mu.Unlock()
	if t.reg != nil {
		// Recorded spans always belong to a sampled trace, so each
		// observation doubles as the bucket's exemplar: the exact trace
		// behind a burning stage latency is one /metrics scrape away.
		t.stageHist(sp.Stage).ObserveExemplar(sp.Duration.Seconds(), sp.Trace.String())
	}
}

// End records a span that started at start and ends now — the common
// "measure this stage" form.
func (t *Tracer) End(trace TraceID, id, parent SpanID, stage, note string, start time.Time) {
	if t == nil || trace == 0 {
		return
	}
	t.Record(Span{
		Trace: trace, ID: id, Parent: parent,
		Stage: stage, Note: note,
		Start: start, Duration: time.Since(start),
	})
}

// stageHist returns (creating on first use) the stage's exported series.
func (t *Tracer) stageHist(stage string) metrics.Histogram {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	h, ok := t.hists[stage]
	if !ok {
		lbl := metrics.Labels{"component": t.component, "stage": stage}
		for k, v := range t.labels {
			lbl[k] = v
		}
		h = t.reg.Histogram("bf_stage_seconds",
			"Latency decomposition of traced requests by pipeline stage.", lbl, nil)
		t.hists[stage] = h
	}
	return h
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// next stays 0 until the ring is full, so this is oldest-first either way.
	out := append([]Span(nil), t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// EvictedFor reports how many of a trace's spans the ring has already
// overwritten. A second value of true means the count is exact; false
// means the per-trace map overflowed at some point, so evictions counted
// before the reset are no longer attributable — the trace MAY have lost
// more spans than reported.
func (t *Tracer) EvictedFor(trace TraceID) (int, bool) {
	if t == nil {
		return 0, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted[trace], t.evictedOther == 0
}

// SpansFor returns the retained spans of one trace, oldest first.
func (t *Tracer) SpansFor(trace TraceID) []Span {
	all := t.Spans()
	out := all[:0]
	for _, sp := range all {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}
