// Package obs holds BlastFunction's trace identity and sampling, plus the
// process-level profiling hooks (runtime.go) and the debug-endpoint JSON
// helpers (handler.go).
//
// The Remote Library samples a trace at the first operation of each
// flush-formed task; every operation of the task and its Flush carry the
// TraceID to the Device Manager as a trailing wire field (byte-identical
// frames when tracing is off). Each process records what it saw of the
// task as milestones of one flight in its flight recorder
// (internal/flightrec), keyed by that TraceID, so a sampled task's
// flights join across processes at /debug/flight?trace=.
//
// A nil *Tracer is valid everywhere and samples nothing: the hot path's
// tracing tax when disabled is one nil check.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// TraceID identifies one end-to-end request (one flush-formed task and
// the client calls that built it). Zero means untraced.
type TraceID uint64

// MarshalJSON renders the ID as a fixed-width hex string, the form
// blastctl accepts back.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
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

// Tracer decides which requests are traced. Sample is safe on a nil
// receiver (never samples), so call sites need no tracing-enabled
// branches.
type Tracer struct {
	threshold uint64        // sample iff rand() < threshold; 0 never, MaxUint64 always
	rng       atomic.Uint64 // splitmix64 state shared by the sampling draw and the ID
}

// New creates a Tracer that starts a trace for the given fraction of
// requests, 0..1. Zero (or negative) never samples.
func New(sampleRate float64) *Tracer {
	t := &Tracer{}
	switch {
	case sampleRate <= 0:
		t.threshold = 0
	case sampleRate >= 1:
		t.threshold = math.MaxUint64
	default:
		t.threshold = uint64(sampleRate * float64(math.MaxUint64))
	}
	// A fixed seed: IDs only need to be unique, not secret.
	t.rng.Store(0x9bf_157a6e_5bf15)
	return t
}

// rand draws the next pseudo-random word (splitmix64: a lock-free atomic
// add plus mixing, cheap enough for the per-task hot path).
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
