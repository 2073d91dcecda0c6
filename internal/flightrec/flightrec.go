// Package flightrec is BlastFunction's task flight recorder: a
// per-process, always-on, bounded journal of task-lifecycle milestones,
// and each process's only trace store. Where internal/logx records
// discrete events, the flight recorder guarantees that EVERY task leaves a
// compact skeleton — admitted, routed, enqueued with queue depth,
// scheduled by policy decision, cache hits, flash-window waits, lease
// renewals, execute, notify, failure cause — keyed by the task's trace ID
// when the client sampled one (internal/obs) and by a synthetic local ID
// otherwise. A sampled task's flights in different processes share that
// key, so /debug/flight?trace= on each process returns its part of one
// request, and sampled flights carry the finer milestones (each board
// operation of a task) that unsampled ones skip.
//
// Flights live in a bounded in-memory ring (oldest whole flights evicted
// under churn) served at /debug/flight. Notable flights — failed tasks and
// per-tenant tail-quantile outliers — additionally spill to a durable,
// size-capped JSONL ledger so the evidence survives the ring.
//
// A nil *Recorder is valid everywhere and records nothing, the same
// contract logx.Logger gives the hot path.
package flightrec

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/obs"
)

// Kind names one task-lifecycle milestone.
type Kind string

// The milestone vocabulary. Hooks across the stack record these; the
// postmortem engine keys its wait-breakdown attribution off them.
const (
	// KindAdmitted is the gateway front door's admission decision.
	KindAdmitted Kind = "admitted"
	// KindRouted is the gateway's endpoint pick (detail: router + target).
	KindRouted Kind = "routed"
	// KindEnqueued is the task landing in the manager's central queue;
	// Depth and Pos capture the queue state at admission.
	KindEnqueued Kind = "enqueued"
	// KindScheduled is the worker popping the task (detail: discipline;
	// Dur: central-queue wait).
	KindScheduled Kind = "scheduled"
	// KindBufferHit / KindBufferMiss are content-addressed buffer-cache
	// probes (session-scoped: buffers are created outside tasks).
	KindBufferHit  Kind = "buffer-cache-hit"
	KindBufferMiss Kind = "buffer-cache-miss"
	// KindFlashJoin is a reconfiguration request joining a flash window;
	// KindFlashWait is the blocking wait for that window to land.
	KindFlashJoin Kind = "flash-join"
	KindFlashWait Kind = "flash-wait"
	// KindLease is a session lease renewal (heartbeat or any request);
	// consecutive renewals coalesce into one event with a Count.
	KindLease Kind = "lease-renewal"
	// KindUpload is data moving toward the board: the client's wire write
	// of an enqueued payload ("wire-send"; for a small frame, which waits
	// for the flush, only its staging copy), and the manager's write-op
	// device time.
	KindUpload Kind = "upload"
	// KindExecute is the worker running the task's operations on the board.
	KindExecute Kind = "execute"
	// KindOp is one operation of a sampled task running on the board
	// (detail: the operation kind), inside the task's execute milestone.
	KindOp Kind = "op"
	// KindNotify is the completion-notification batch leaving the manager.
	KindNotify Kind = "notify"
	// KindFailure carries a failure cause (op error, lease expiry,
	// connection loss, admission rejection).
	KindFailure Kind = "failure"
	// KindRetry is a retry attempt (detail: what and why; e.g. an
	// admission-rejected request told to come back after a budget refill).
	KindRetry Kind = "retry"
	// KindComplete is terminal: Dur is the flight's end-to-end latency as
	// observed by the recording process.
	KindComplete Kind = "complete"
)

// Event is one recorded milestone. Events are compact value structs — no
// maps, no interfaces — so a flight skeleton costs a few cache lines.
type Event struct {
	Kind Kind      `json:"kind"`
	Time time.Time `json:"time"`
	// Dur is the milestone's measured duration, when it has one (queue
	// wait, execute, flash wait, ...).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Detail carries small free-form context: the failure cause, the
	// scheduling policy, the routed endpoint.
	Detail string `json:"detail,omitempty"`
	// Depth and Pos snapshot the central queue at enqueue: total queued
	// tasks and this task's arrival position.
	Depth int `json:"depth,omitempty"`
	Pos   int `json:"pos,omitempty"`
	// Count > 1 marks a coalesced run of identical consecutive milestones
	// (lease renewals, cache hits); Time is the latest occurrence and Dur
	// the accumulated duration.
	Count int `json:"count,omitempty"`
	// Ops and Device describe a task on its execute milestone: the
	// operations it held and the modelled board time they occupied.
	Ops    int           `json:"ops,omitempty"`
	Device time.Duration `json:"device_ns,omitempty"`
	// Seq is the process-wide recording sequence, a deterministic
	// tie-break for merged timelines.
	Seq uint64 `json:"seq"`
}

// Flight is one task's (or session's) recorded skeleton.
type Flight struct {
	Trace obs.TraceID `json:"trace"`
	// Synthetic marks locally generated keys: the task was not sampled by
	// the tracer, so the skeleton cannot be joined across processes.
	Synthetic bool   `json:"synthetic,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	// Notable is the reason the flight spilled to the ledger ("failed:
	// ...", "tail-latency", "lease-expired"); empty for routine flights.
	Notable string  `json:"notable,omitempty"`
	Events  []Event `json:"events"`
	// Dropped counts events beyond the per-flight cap that were not
	// retained (the skeleton keeps the earliest milestones).
	Dropped int `json:"dropped,omitempty"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Process stamps snapshots and ledger lines ("manager/fpga-A",
	// "gateway"). A process keeps one recorder, shared by everything it
	// records: the gateway's holds its front door's flights and those of
	// the Remote Libraries it dials.
	Process string
	// Flights bounds the ring (whole flights; default 1024). Under churn
	// the oldest flights are evicted — the newest skeletons survive.
	Flights int
	// LedgerPath, when set, is the durable JSONL spill file for notable
	// flights. When the file would exceed LedgerMaxBytes it rotates once
	// to LedgerPath+".1" (previous rotation replaced).
	LedgerPath string
	// LedgerMaxBytes caps the ledger file before rotation (default 1 MiB).
	LedgerMaxBytes int64
	// Now is the injectable clock (default time.Now).
	Now func() time.Time
}

const (
	// eventsPerFlight bounds one flight's retained milestones.
	eventsPerFlight = 48
	// A completion is notable when its latency exceeds tailFactor times
	// its tenant's running mean, once the tenant has tailMinSamples
	// completions behind it.
	tailFactor     = 4
	tailMinSamples = 16
)

// tailStats is one tenant's decayed completion-latency estimate, the
// baseline for tail-quantile notability.
type tailStats struct {
	count int
	mean  float64 // EWMA of latency seconds
}

// Recorder is the per-process flight journal. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Recorder struct {
	cfg Config

	synth atomic.Uint64 // synthetic key counter

	mu      sync.Mutex
	flights map[obs.TraceID]*Flight
	order   []obs.TraceID // arrival order; front = eviction candidate
	head    int           // index of the oldest live entry in order
	free    []*Flight     // recycled evicted flights; reuse keeps the hot path allocation-free
	seq     uint64
	evicted uint64
	spilled uint64
	tenants map[string]*tailStats

	ledger     *os.File
	ledgerSize int64
}

// New creates a Recorder. An unopenable ledger degrades to in-memory
// recording rather than refusing to start.
func New(cfg Config) *Recorder {
	if cfg.Flights <= 0 {
		cfg.Flights = 1024
	}
	if cfg.LedgerMaxBytes <= 0 {
		cfg.LedgerMaxBytes = 1 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Recorder{
		cfg:     cfg,
		flights: make(map[obs.TraceID]*Flight),
		tenants: make(map[string]*tailStats),
	}
	if cfg.LedgerPath != "" {
		if f, err := os.OpenFile(cfg.LedgerPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			r.ledger = f
			if st, serr := f.Stat(); serr == nil {
				r.ledgerSize = st.Size()
			}
		}
	}
	return r
}

// Process reports the recorder's process stamp.
func (r *Recorder) Process() string {
	if r == nil {
		return ""
	}
	return r.cfg.Process
}

// synthBase sets the high bits of synthetic keys so they are visually
// distinct from sampled trace IDs in dumps (collision with a real random
// trace ID is as unlikely as any other 64-bit collision).
const synthBase = uint64(0xF1A9) << 48

// Begin opens a flight. A zero trace gets a synthetic local key — the
// always-on guarantee: unsampled tasks still leave a skeleton, they just
// cannot be joined across processes. The returned key identifies the
// flight in every later call. Re-beginning a live key is a no-op (the
// existing flight continues).
func (r *Recorder) Begin(trace obs.TraceID, tenant string) obs.TraceID {
	if r == nil {
		return 0
	}
	synthetic := trace == 0
	if synthetic {
		trace = obs.TraceID(synthBase | r.synth.Add(1))
	}
	r.mu.Lock()
	if _, ok := r.flights[trace]; !ok {
		r.admitLocked(trace, r.newFlightLocked(trace, synthetic, tenant))
	}
	r.mu.Unlock()
	return trace
}

// Alloc reserves a flight key without opening the flight: one atomic
// increment, no lock. The per-task hot paths use it — they batch their
// milestones lock-free and the flight is admitted by the task's single
// CompleteWith (or by any stray Record on the key). Sessions and
// connections, whose flights accrue events incrementally and should be
// visible while live, keep using Begin. Key semantics match Begin: the
// sampled trace when non-zero, a synthetic local key otherwise.
func (r *Recorder) Alloc(trace obs.TraceID) obs.TraceID {
	if r == nil {
		return 0
	}
	if trace == 0 {
		trace = obs.TraceID(synthBase | r.synth.Add(1))
	}
	return trace
}

// newFlightLocked hands out a flight struct, reusing a recycled one (and
// its grown event array) when available — every read path deep-copies
// events, so recycling never aliases a snapshot. Called with mu held.
func (r *Recorder) newFlightLocked(trace obs.TraceID, synthetic bool, tenant string) *Flight {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		*f = Flight{Trace: trace, Synthetic: synthetic, Tenant: tenant, Events: f.Events[:0]}
		return f
	}
	return &Flight{Trace: trace, Synthetic: synthetic, Tenant: tenant, Events: make([]Event, 0, 8)}
}

// admitLocked inserts a flight, evicting the oldest one at capacity.
// Called with mu held.
func (r *Recorder) admitLocked(trace obs.TraceID, f *Flight) {
	for len(r.flights) >= r.cfg.Flights {
		// order can carry stale entries for already-evicted keys; skip them.
		old := r.order[r.head]
		r.order[r.head] = 0
		r.head++
		if victim, live := r.flights[old]; live {
			delete(r.flights, old)
			r.evicted++
			if len(r.free) < 64 {
				r.free = append(r.free, victim)
			}
		}
	}
	r.flights[trace] = f
	r.order = append(r.order, trace)
	// Compact the order slice once the dead prefix dominates, so the
	// backing array does not grow without bound.
	if r.head > len(r.order)/2 && r.head > 64 {
		r.order = append(r.order[:0], r.order[r.head:]...)
		r.head = 0
	}
}

// Record appends one milestone to a flight. Unknown keys open a flight on
// the fly (late milestones after an eviction still leave a skeleton).
// A milestone identical in kind and detail to the flight's last retained
// event coalesces into it: Count increments, Time advances, Dur
// accumulates — the representation lease renewals and cache-hit runs want.
func (r *Recorder) Record(trace obs.TraceID, ev Event) {
	if r == nil || trace == 0 {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = r.cfg.Now()
	}
	r.mu.Lock()
	f, ok := r.flights[trace]
	if !ok {
		f = r.newFlightLocked(trace, uint64(trace)&synthBase == synthBase, "")
		r.admitLocked(trace, f)
	}
	r.appendEventLocked(f, ev)
	r.mu.Unlock()
}

// appendEventLocked stamps the sequence and appends (or coalesces) one
// event. Called with mu held.
func (r *Recorder) appendEventLocked(f *Flight, ev Event) {
	r.seq++
	ev.Seq = r.seq
	if n := len(f.Events); n > 0 {
		last := &f.Events[n-1]
		if last.Kind == ev.Kind && last.Detail == ev.Detail && last.Depth == ev.Depth && last.Pos == ev.Pos {
			if last.Count == 0 {
				last.Count = 1
			}
			last.Count++
			last.Time = ev.Time
			last.Dur += ev.Dur
			last.Seq = ev.Seq
			return
		}
	}
	if len(f.Events) >= eventsPerFlight {
		f.Dropped++
		return
	}
	f.Events = append(f.Events, ev)
}

// MarkNotable tags a flight and spills it to the ledger immediately.
// Repeated marks append reasons but spill only once.
func (r *Recorder) MarkNotable(trace obs.TraceID, reason string) {
	if r == nil || trace == 0 {
		return
	}
	r.mu.Lock()
	f, ok := r.flights[trace]
	if !ok {
		r.mu.Unlock()
		return
	}
	already := f.Notable != ""
	if already {
		if f.Notable != reason {
			f.Notable += "; " + reason
		}
	} else {
		f.Notable = reason
	}
	var line []byte
	if !already {
		line = r.ledgerLineLocked(f)
	}
	r.mu.Unlock()
	r.appendLedger(line)
}

// Complete terminates a flight: records the KindComplete milestone with
// the end-to-end latency, runs per-tenant tail detection, and spills the
// flight when it is notable (failed, marked, or a tail outlier).
func (r *Recorder) Complete(trace obs.TraceID, total time.Duration, failed bool, cause string) {
	r.CompleteWith(trace, "", nil, time.Time{}, total, failed, cause)
}

// CompleteWith is Complete with a batch of accumulated milestones applied
// first, all under one lock acquisition. The hot paths collect their
// per-task milestones lock-free (the manager worker in a per-worker
// scratch slice, the client library on the command queue) and pay the
// recorder's mutex — which bounces between goroutines' cache lines —
// once per task instead of once per milestone. Events keep their
// caller-stamped times, so the merged timeline is identical to
// milestone-at-a-time recording. tenant backfills the flight's tenant
// when it is not already known — Alloc-keyed flights are admitted right
// here. end stamps the complete milestone, so a caller that measured
// total up to end gets a milestone that starts where its total does;
// zero stamps it now. The evs slice is not retained.
func (r *Recorder) CompleteWith(trace obs.TraceID, tenant string, evs []Event, end time.Time, total time.Duration, failed bool, cause string) {
	if r == nil || trace == 0 {
		return
	}
	detail := ""
	if failed {
		detail = "failed"
	}
	now := r.cfg.Now()
	r.mu.Lock()
	f, ok := r.flights[trace]
	if !ok {
		f = r.newFlightLocked(trace, uint64(trace)&synthBase == synthBase, tenant)
		r.admitLocked(trace, f)
	}
	if f.Tenant == "" {
		f.Tenant = tenant
	}
	for _, ev := range evs {
		if ev.Time.IsZero() {
			ev.Time = now
		}
		r.appendEventLocked(f, ev)
	}
	if end.IsZero() {
		end = now
	}
	r.appendEventLocked(f, Event{Kind: KindComplete, Dur: total, Detail: detail, Time: end})
	notable := ""
	if failed {
		notable = "failed"
		if cause != "" {
			notable = "failed: " + cause
		}
	} else if f.Tenant != "" {
		ts := r.tenants[f.Tenant]
		if ts == nil {
			ts = &tailStats{}
			r.tenants[f.Tenant] = ts
		}
		sec := total.Seconds()
		if ts.count >= tailMinSamples && ts.mean > 0 && sec > tailFactor*ts.mean {
			notable = "tail-latency"
		}
		// EWMA with a 1/16 step: stable against single outliers, adapts
		// within a few dozen completions when the workload shifts.
		ts.count++
		if ts.mean == 0 {
			ts.mean = sec
		} else {
			ts.mean += (sec - ts.mean) / 16
		}
	}
	var line []byte
	if notable != "" && f.Notable == "" {
		f.Notable = notable
		line = r.ledgerLineLocked(f)
	}
	r.mu.Unlock()
	r.appendLedger(line)
}

// ledgerRecord is one JSONL ledger line.
type ledgerRecord struct {
	Process string    `json:"process"`
	Spilled time.Time `json:"spilled"`
	Flight  Flight    `json:"flight"`
}

// ledgerLineLocked serializes a flight for the ledger (nil when no ledger
// is configured). Called with mu held; the actual write happens outside
// the lock.
func (r *Recorder) ledgerLineLocked(f *Flight) []byte {
	if r.ledger == nil {
		return nil
	}
	r.spilled++
	cp := *f
	cp.Events = append([]Event(nil), f.Events...)
	line, err := json.Marshal(ledgerRecord{Process: r.cfg.Process, Spilled: r.cfg.Now(), Flight: cp})
	if err != nil {
		return nil
	}
	return append(line, '\n')
}

// appendLedger writes one spill line, rotating the file at the size cap.
func (r *Recorder) appendLedger(line []byte) {
	if len(line) == 0 || r.ledger == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ledgerSize+int64(len(line)) > r.cfg.LedgerMaxBytes && r.ledgerSize > 0 {
		r.ledger.Close()
		os.Rename(r.cfg.LedgerPath, r.cfg.LedgerPath+".1")
		f, err := os.OpenFile(r.cfg.LedgerPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			r.ledger = nil
			return
		}
		r.ledger = f
		r.ledgerSize = 0
	}
	if n, err := r.ledger.Write(line); err == nil {
		r.ledgerSize += int64(n)
	}
}

// Close releases the ledger file.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ledger != nil {
		r.ledger.Close()
		r.ledger = nil
	}
}

// Snapshot is the /debug/flight document.
type Snapshot struct {
	Process string   `json:"process"`
	Flights []Flight `json:"flights"`
	// Evicted counts whole flights dropped from the ring; Spilled counts
	// notable flights written to the ledger.
	Evicted uint64 `json:"evicted"`
	Spilled uint64 `json:"spilled"`
}

// Snapshot copies the ring, oldest flight first.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Process: r.cfg.Process, Evicted: r.evicted, Spilled: r.spilled}
	for i := r.head; i < len(r.order); i++ {
		f, ok := r.flights[r.order[i]]
		if !ok {
			continue
		}
		cp := *f
		cp.Events = append([]Event(nil), f.Events...)
		snap.Flights = append(snap.Flights, cp)
	}
	return snap
}

// Recent calls fn on the ring's flights, newest first, until fn returns
// false. It copies nothing and holds the recorder's lock throughout, so fn
// must be brief, must not call the recorder and must not retain f.
func (r *Recorder) Recent(fn func(f *Flight) bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.order) - 1; i >= r.head; i-- {
		if f, ok := r.flights[r.order[i]]; ok && !fn(f) {
			return
		}
	}
}

// FlightFor returns one trace's flight, consulting the ring first and the
// durable ledger (current file, then the rotated one) as fallback.
func (r *Recorder) FlightFor(trace obs.TraceID) (Flight, bool) {
	if r == nil {
		return Flight{}, false
	}
	r.mu.Lock()
	if f, ok := r.flights[trace]; ok {
		cp := *f
		cp.Events = append([]Event(nil), f.Events...)
		r.mu.Unlock()
		return cp, true
	}
	path := r.cfg.LedgerPath
	r.mu.Unlock()
	if path == "" {
		return Flight{}, false
	}
	for _, p := range []string{path, path + ".1"} {
		if f, ok := scanLedger(p, trace); ok {
			return f, true
		}
	}
	return Flight{}, false
}

// scanLedger searches one JSONL ledger file for a trace's newest spill.
func scanLedger(path string, trace obs.TraceID) (Flight, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Flight{}, false
	}
	var found Flight
	ok := false
	start := 0
	for i := 0; i <= len(data); i++ {
		if i < len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var rec ledgerRecord
		if json.Unmarshal(line, &rec) == nil && rec.Flight.Trace == trace {
			found, ok = rec.Flight, true // keep scanning: newest spill wins
		}
	}
	return found, ok
}
