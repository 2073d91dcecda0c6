package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("sched: queue closed")

// Queue is the central task queue a Device Manager worker drains. All
// methods are safe for concurrent use.
type Queue interface {
	// Push admits an item, blocking while the queue is at capacity
	// (backpressure, like the channel send it replaces). It fails with
	// ErrClosed once the queue is closed.
	Push(it *Item) error
	// Pop removes the next item under the queue's discipline, blocking
	// until one is available. It returns ok=false when ctx is cancelled
	// or when the queue is closed and drained — closed-channel
	// semantics, so a worker loop terminates only after running
	// everything already submitted.
	Pop(ctx context.Context) (*Item, bool)
	// Remove extracts every queued item of the session (submit order)
	// from whichever structure the discipline holds them in; the lease
	// sweeper fails them without occupying the board.
	Remove(session uint64) []*Item
	// Stats snapshots queue and per-tenant counters.
	Stats() Stats
	// Len is the current queue depth.
	Len() int
	// Close stops admissions; queued items remain poppable (drain).
	Close()
}

// tenantCounters is the wrapper-side per-tenant accounting.
type tenantCounters struct {
	weight    int
	depth     int
	popped    uint64
	removed   uint64
	waitTotal time.Duration
	maxWait   time.Duration
}

// queue wraps a discipline policy with blocking, capacity, close-drain
// and statistics — uniform across disciplines so the fifo hot path and
// the fair-queuing paths share one concurrency envelope.
type queue struct {
	disc Discipline
	cfg  Config

	mu     sync.Mutex
	pol    policy
	closed bool
	seq    uint64
	// notEmpty and notFull hold one wake-up token for the Pops and Pushes
	// blocked outside mu; a waiter that leaves the condition true passes a
	// token on. done is closed by Close.
	notEmpty, notFull, done chan struct{}

	pushed, popped, removed uint64
	tenants                 map[string]*tenantCounters
}

func newQueue(d Discipline, cfg Config, pol policy) *queue {
	return &queue{
		disc:     d,
		cfg:      cfg,
		pol:      pol,
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
		done:     make(chan struct{}),
		tenants:  make(map[string]*tenantCounters),
	}
}

// signal leaves a wake-up token in ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (q *queue) tenant(name string) *tenantCounters {
	tc, ok := q.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		q.tenants[name] = tc
	}
	return tc
}

// effectiveWeight resolves an item's weight: the queue's static table
// first (operator configuration wins), then the item's own weight (the
// Registry-propagated binding), then 1.
func (q *queue) effectiveWeight(it *Item) int {
	if w, ok := q.cfg.Weights[it.Tenant]; ok && w > 0 {
		return w
	}
	if it.Weight > 0 {
		return it.Weight
	}
	return 1
}

// Push implements Queue.
func (q *queue) Push(it *Item) error {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return ErrClosed
		}
		if q.pol.len() < q.cfg.Capacity {
			q.seq++
			it.seq = q.seq
			if it.Submitted.IsZero() {
				it.Submitted = q.cfg.Now()
			}
			if it.Cost < 1 {
				it.Cost = 1
			}
			it.Weight = q.effectiveWeight(it)
			q.pol.push(it)
			it.Depth = q.pol.len()
			it.Pos = it.Depth
			q.pushed++
			tc := q.tenant(it.Tenant)
			tc.depth++
			tc.weight = it.Weight
			signal(q.notEmpty)
			if q.pol.len() < q.cfg.Capacity {
				signal(q.notFull)
			}
			q.mu.Unlock()
			return nil
		}
		q.mu.Unlock()
		select { // woken by Pop, Remove or Close
		case <-q.notFull:
		case <-q.done:
		}
	}
}

// Pop implements Queue.
func (q *queue) Pop(ctx context.Context) (*Item, bool) {
	for {
		q.mu.Lock()
		if it := q.pol.pop(q.cfg.Now()); it != nil {
			q.popped++
			tc := q.tenant(it.Tenant)
			tc.depth--
			tc.popped++
			if w := q.cfg.Now().Sub(it.Submitted); w > 0 {
				tc.waitTotal += w
				if w > tc.maxWait {
					tc.maxWait = w
				}
			}
			signal(q.notFull)
			if q.pol.len() > 0 {
				signal(q.notEmpty)
			}
			q.mu.Unlock()
			return it, true
		}
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false
		case <-q.notEmpty:
		case <-q.done:
		}
	}
}

// Remove implements Queue.
func (q *queue) Remove(session uint64) []*Item {
	q.mu.Lock()
	items := q.pol.remove(session)
	if len(items) > 0 {
		q.removed += uint64(len(items))
		for _, it := range items {
			tc := q.tenant(it.Tenant)
			tc.depth--
			tc.removed++
		}
		signal(q.notFull)
	}
	q.mu.Unlock()
	return items
}

// Stats implements Queue.
func (q *queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Discipline: q.disc,
		Depth:      q.pol.len(),
		Pushed:     q.pushed,
		Popped:     q.popped,
		Removed:    q.removed,
	}
	for name, tc := range q.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:    name,
			Weight:    tc.weight,
			Depth:     tc.depth,
			Popped:    tc.popped,
			Removed:   tc.removed,
			WaitTotal: tc.waitTotal,
			MaxWait:   tc.maxWait,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Len implements Queue.
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pol.len()
}

// Close implements Queue.
func (q *queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		// Wake blocked pushers (they fail with ErrClosed) and poppers
		// (they drain, then observe closed).
		close(q.done)
	}
	q.mu.Unlock()
}
