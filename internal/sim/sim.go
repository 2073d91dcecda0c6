// Package sim is a small discrete-event simulation kernel.
//
// The paper's utilization experiments (Tables II-IV) run three nodes, five
// functions and hours of HTTP load against real boards. This reproduction
// regenerates them deterministically in milliseconds by simulating the
// same queueing structure in virtual time: closed-loop request generators,
// per-board servers (the Device Manager's central task queue plus the
// exclusive device), and the calibrated cost models for service times.
//
// The kernel is callback-based: events are (time, func) pairs in a binary
// heap. A Server is a capacity-1 resource admitting jobs through the
// manager's own sched queue, so the simulator runs the fifo and drr
// disciplines rather than modelling them. Events scheduled at
// equal times fire in schedule order, which makes runs fully
// deterministic.
package sim

import (
	"container/heap"
	"context"
	"math"
	"time"

	"blastfunction/internal/sched"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// eventHeap orders events by time, then schedule order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// Engine is the simulation clock and event queue. Not safe for concurrent
// use: a simulation runs on one goroutine by construction.
type Engine struct {
	now    time.Duration
	events eventHeap
	seq    uint64
}

// NewEngine creates an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t; past times fire "now".
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Step fires the next event; it reports false when none remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run processes events up to and including time until, then leaves the
// clock at until, whether the events drained earlier or some remain
// scheduled past it.
func (e *Engine) Run(until time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of scheduled events (diagnostics).
func (e *Engine) Pending() int { return len(e.events) }

// epoch is virtual time zero on the wall-clock time line.
var epoch = time.Unix(0, 0)

// Clock returns the virtual time as a time.Time, for code that takes a
// wall clock (the sched queue, flash.Service).
func (e *Engine) Clock() time.Time { return epoch.Add(e.now) }

// Server is a capacity-1 resource: a Device Manager's central task queue,
// a real sched.Queue, in front of its exclusive board.
type Server struct {
	engine *Engine
	queue  sched.Queue
	busy   bool

	busyTime time.Duration
	served   uint64
}

// job is a queued item and, as its payload, the service it asks for; one
// allocation holds both.
type job struct {
	item    sched.Item
	service time.Duration
	done    func(wait, service time.Duration)
}

// NewServer creates a server on the engine whose queue runs discipline d
// on the virtual clock; it fails on an unknown discipline. The queue is
// unbounded, so a simulation never blocks on backpressure.
func (e *Engine) NewServer(d sched.Discipline) (*Server, error) {
	q, err := sched.New(d, sched.Config{Capacity: math.MaxInt, Now: e.Clock})
	if err != nil {
		return nil, err
	}
	return &Server{engine: e, queue: q}, nil
}

// Enqueue admits a job for tenant with the given cost (the manager charges
// a task its op count) and service demand. When the job completes, done
// receives the time it waited in queue and its service time.
func (s *Server) Enqueue(tenant string, cost int64, service time.Duration, done func(wait, service time.Duration)) {
	j := &job{service: service, done: done}
	j.item = sched.Item{Tenant: tenant, Cost: cost, Payload: j}
	// The queue is unbounded and never closed, so Push neither blocks nor
	// fails.
	_ = s.queue.Push(&j.item)
	if !s.busy {
		s.startNext()
	}
}

func (s *Server) startNext() {
	if s.queue.Len() == 0 {
		s.busy = false
		return
	}
	it, _ := s.queue.Pop(context.Background()) // non-empty: does not block
	j := it.Payload.(*job)
	s.busy = true
	wait := s.engine.Clock().Sub(it.Submitted)
	s.engine.After(j.service, func() {
		s.busyTime += j.service
		s.served++
		if j.done != nil {
			j.done(wait, j.service)
		}
		s.startNext()
	})
}

// QueueLen returns the number of waiting jobs (excluding the one in
// service).
func (s *Server) QueueLen() int { return s.queue.Len() }

// BusyTime returns the cumulative service time delivered.
func (s *Server) BusyTime() time.Duration { return s.busyTime }

// Served returns the number of completed jobs.
func (s *Server) Served() uint64 { return s.served }
