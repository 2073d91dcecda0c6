// Package sched is the Device Manager's pluggable central-queue
// scheduling subsystem.
//
// The paper's Device Manager serializes every client through one strict
// FIFO queue; one greedy tenant submitting large tasks starves everyone
// else sharing the board. This package factors the queue behind a small
// Queue interface and ships two disciplines:
//
//   - fifo: strict arrival order, the paper-faithful default;
//   - drr: deficit round-robin weighted fair queuing keyed by tenant,
//     with configurable per-tenant weights and a starvation guard that
//     bounds any tenant's wait.
//
// All disciplines share the same blocking envelope: Push applies
// backpressure at capacity, Pop blocks until an item is schedulable (or
// the context is cancelled), Close drains like a closed channel, and
// Remove extracts a dead session's queued work from whichever structure
// holds it.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Discipline names a scheduling discipline.
type Discipline string

// The shipped disciplines.
const (
	// FIFO serves tasks strictly in arrival order (the paper's design).
	FIFO Discipline = "fifo"
	// DRR is deficit round-robin weighted fair queuing across tenants.
	DRR Discipline = "drr"
)

// Disciplines lists every name New accepts besides the empty one.
var Disciplines = []Discipline{FIFO, DRR}

// ParseDiscipline validates a discipline name; the empty string selects
// FIFO, the paper's default.
func ParseDiscipline(s string) (Discipline, error) {
	if s == "" {
		return FIFO, nil
	}
	if slices.Contains(Disciplines, Discipline(s)) {
		return Discipline(s), nil
	}
	return "", fmt.Errorf("sched: unknown discipline %q (want one of %v)", s, Disciplines)
}

// ParseWeights parses a drr weight table, "tenant=w,tenant=w" with
// positive integer weights; the empty string is no table.
func ParseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	table := make(map[string]int)
	for _, entry := range strings.Split(s, ",") {
		kv := strings.SplitN(entry, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("malformed entry %q (want name=weight)", entry)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight %q of %q: want a positive integer", kv[1], kv[0])
		}
		table[kv[0]] = w
	}
	return table, nil
}

// Item is one schedulable unit: a sealed multi-operation task.
type Item struct {
	// Session identifies the submitting session; Remove reclaims by it.
	Session uint64
	// Tenant is the fair-queuing key (the client/function instance name).
	Tenant string
	// Weight is the tenant's fair-share weight under drr; values below 1
	// are lifted to 1 at Push.
	Weight int
	// Cost is the item's service-demand estimate in abstract units (the
	// manager uses the operation count); drr charges it against the
	// tenant's deficit. Values below 1 are lifted to 1 at Push.
	Cost int64
	// Submitted is stamped at Push (unless preset by a test) and is the
	// reference point for queue-wait accounting and the starvation guard.
	Submitted time.Time
	// Payload is the opaque task.
	Payload any

	// Depth and Pos are stamped at Push: the queue's total occupancy
	// after admission and this item's arrival position within it. They
	// feed the flight recorder's enqueue milestone so a postmortem can
	// say "entered at position 7 of 7" without re-deriving queue state.
	Depth int
	Pos   int

	// seq is the queue-assigned arrival number breaking all ties
	// deterministically in submission order.
	seq uint64
}

// Config parameterizes a queue.
type Config struct {
	// Capacity bounds queued items; Push blocks when full (backpressure,
	// matching the channel the fifo discipline replaces). Zero selects
	// 1024.
	Capacity int
	// Weights assigns drr weights by tenant name; tenants not listed use
	// the weight carried by their items (propagated from the Registry
	// binding), and failing that 1.
	Weights map[string]int
	// StarvationGuard bounds any tenant's wait under drr: an item queued
	// longer than the guard is served next regardless of deficits. Zero
	// selects 2s; negative disables the guard.
	StarvationGuard time.Duration
	// Now supplies the clock; tests inject a fake. Nil selects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.StarvationGuard == 0 {
		c.StarvationGuard = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a queue snapshot.
type Stats struct {
	// Discipline is the queue's discipline name.
	Discipline Discipline `json:"discipline"`
	// Depth is the number of queued items.
	Depth int `json:"depth"`
	// Pushed, Popped and Removed are lifetime item counters.
	Pushed  uint64 `json:"pushed"`
	Popped  uint64 `json:"popped"`
	Removed uint64 `json:"removed"`
	// Tenants lists per-tenant statistics sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's view of the queue.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Weight is the tenant's effective drr weight (informational under
	// other disciplines).
	Weight int `json:"weight"`
	// Depth is the tenant's currently queued item count.
	Depth int `json:"depth"`
	// Popped counts items served; Removed counts items reclaimed.
	Popped  uint64 `json:"popped"`
	Removed uint64 `json:"removed"`
	// WaitTotal is the cumulative queue wait of served items; MaxWait the
	// largest single wait observed.
	WaitTotal time.Duration `json:"wait_total_ns"`
	MaxWait   time.Duration `json:"max_wait_ns"`
}

// policy is a discipline's data structure. Implementations are not
// goroutine-safe; the queue wrapper serializes access.
type policy interface {
	// push admits an item (seq, Cost, Weight, Submitted already set).
	push(it *Item)
	// pop selects and removes the next item to serve; nil when empty.
	pop(now time.Time) *Item
	// remove extracts every queued item of the session, submit order.
	remove(session uint64) []*Item
	// len is the queued item count.
	len() int
}

// New creates a queue of the given discipline.
func New(d Discipline, cfg Config) (Queue, error) {
	cfg = cfg.withDefaults()
	var pol policy
	switch d {
	case "", FIFO:
		d = FIFO
		pol = newFIFOPolicy()
	case DRR:
		pol = newDRRPolicy(cfg.StarvationGuard)
	default:
		return nil, fmt.Errorf("sched: unknown discipline %q", d)
	}
	return newQueue(d, cfg, pol), nil
}

// sortItemsBySeq orders removed items in submission order.
func sortItemsBySeq(items []*Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].seq < items[j].seq })
}
