package ocl

import (
	"sync"
	"sync/atomic"
	"time"
)

// BaseEvent is a reusable Event implementation shared by the native runtime
// and the Remote OpenCL Library. It holds the command type, the current
// execution status and an optional terminal error, and supports both
// polling (Status) and blocking (Wait) like the OpenCL specification
// requires for clGetEventInfo and clWaitForEvents.
//
// Status transitions must be monotonic (Queued -> Submitted -> Running ->
// Complete, or any state -> error); SetStatus enforces this so a late
// network response cannot move a completed event backwards.
type BaseEvent struct {
	mu sync.Mutex
	// done is the completion channel, made by the first Wait on an event
	// that has not terminated yet: most events end before anyone blocks on
	// them, and those never pay for one.
	done    chan struct{}
	cmdType CommandType
	status  ExecStatus
	err     error

	// deviceNanos is the modelled device occupancy, for ProfilingEvent.
	deviceNanos atomic.Int64
}

// NewEvent creates an event in the Queued state.
func NewEvent(cmd CommandType) *BaseEvent {
	e := new(BaseEvent)
	e.Init(cmd)
	return e
}

// Init puts a zero BaseEvent in the Queued state, for runtimes that embed
// one by value in their own event type. Call it once, before first use.
func (e *BaseEvent) Init(cmd CommandType) {
	e.cmdType = cmd
	e.status = Queued
}

// CommandType implements Event.
func (e *BaseEvent) CommandType() CommandType { return e.cmdType }

// Status implements Event.
func (e *BaseEvent) Status() ExecStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Err implements Event.
func (e *BaseEvent) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Wait implements Event.
func (e *BaseEvent) Wait() error {
	e.mu.Lock()
	if e.status.Done() {
		err := e.err
		e.mu.Unlock()
		return err
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	done := e.done
	e.mu.Unlock()
	<-done
	return e.Err()
}

// SetStatus advances the event to the given status. Regressions (including
// repeating the current status) are ignored, preserving monotonicity.
// Reaching Complete wakes the waiters.
func (e *BaseEvent) SetStatus(s ExecStatus) {
	e.transition(s, nil)
}

// Fail terminates the event with an error. The execution status becomes the
// negative status code as the OpenCL specification mandates for abnormally
// terminated commands.
func (e *BaseEvent) Fail(err error) {
	if err == nil {
		e.transition(Complete, nil)
		return
	}
	e.transition(ExecStatus(StatusOf(err)), err)
}

// Complete terminates the event successfully.
func (e *BaseEvent) Complete() { e.transition(Complete, nil) }

func (e *BaseEvent) transition(s ExecStatus, err error) {
	e.mu.Lock()
	// Terminal states are sticky; otherwise only forward (decreasing)
	// transitions are applied.
	if e.status.Done() || (s >= e.status && !s.Failed()) {
		e.mu.Unlock()
		return
	}
	e.status = s
	if s.Failed() {
		e.err = err
		if e.err == nil {
			e.err = Status(s)
		}
	}
	if e.status.Done() && e.done != nil {
		close(e.done)
	}
	e.mu.Unlock()
}

// CompletedEvent returns an already-complete event of the given type. It is
// used for degenerate enqueues (zero-length transfers) and markers on empty
// queues.
func CompletedEvent(cmd CommandType) *BaseEvent {
	e := NewEvent(cmd)
	e.Complete()
	return e
}

// ProfilingEvent is implemented by events that expose the modelled device
// time of their command — the reproduction's analog of
// clGetEventProfilingInfo(CL_PROFILING_COMMAND_START/END).
type ProfilingEvent interface {
	Event
	// DeviceTime returns the device occupancy of the command, or zero if
	// the command has not completed (or never touched the device).
	DeviceTime() time.Duration
}

// SetDeviceTime records the command's device occupancy; runtimes call it
// at completion.
func (e *BaseEvent) SetDeviceTime(d time.Duration) {
	e.deviceNanos.Store(int64(d))
}

// DeviceTime implements ProfilingEvent.
func (e *BaseEvent) DeviceTime() time.Duration {
	return time.Duration(e.deviceNanos.Load())
}
