package manager

import (
	"net/http"
	"slices"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/obs"
)

// TaskTrace is one completed task's execution summary (which tenant ran
// what, when, for how long). It is read off the task's flight: the
// manager keeps no task log of its own.
type TaskTrace struct {
	// Seq orders completions: the recorder sequence of the task's terminal
	// milestone, increasing in completion order.
	Seq uint64 `json:"seq"`
	// Client is the owning function instance's name.
	Client string `json:"client"`
	// Ops is the number of operations in the task.
	Ops int `json:"ops"`
	// DeviceTime is the modelled board occupancy of the task.
	DeviceTime time.Duration `json:"device_ns"`
	// QueueWait is the time the task spent in the central queue before
	// the worker picked it — the per-task view of scheduling delay.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Failed marks tasks aborted by a failing operation.
	Failed bool `json:"failed,omitempty"`
	// CompletedAt is the wall-clock completion time.
	CompletedAt time.Time `json:"completed_at"`
}

// taskTrace reads a TaskTrace off a flight. Only flights of tasks that
// reached the board qualify: session flights and tasks failed before
// execution carry no execute milestone.
func taskTrace(f *flightrec.Flight) (TaskTrace, bool) {
	tr := TaskTrace{Client: f.Tenant}
	executed, completed := false, false
	for _, ev := range f.Events {
		switch ev.Kind {
		case flightrec.KindScheduled:
			tr.QueueWait = ev.Dur
		case flightrec.KindExecute:
			executed = true
			tr.Ops, tr.DeviceTime, tr.CompletedAt = ev.Ops, ev.Device, ev.Time
		case flightrec.KindComplete:
			completed = true
			tr.Seq, tr.Failed = ev.Seq, ev.Detail == "failed"
		}
	}
	return tr, executed && completed
}

// traceView bounds Traces to the newest tasks.
const traceView = 512

// Traces returns the newest executed tasks still in the flight ring, at
// most traceView of them, oldest first. A task appears once its flight
// completes, just after its completion frame is written; none appear when
// the flight recorder is disabled.
func (m *Manager) Traces() []TaskTrace {
	var out []TaskTrace
	m.flight.Recent(func(f *flightrec.Flight) bool {
		if tr, ok := taskTrace(f); ok {
			out = append(out, tr)
		}
		return len(out) < traceView
	})
	slices.Reverse(out)
	return out
}

// TraceHandler serves Traces as JSON, for blastctl-style inspection of
// what recently ran on the board. ?n=K keeps the most recent K entries.
func (m *Manager) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.ServeTail(w, r, m.Traces())
	})
}
