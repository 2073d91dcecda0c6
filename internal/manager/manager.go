// Package manager implements the BlastFunction Device Manager.
//
// One Device Manager controls one FPGA board and provides the time-sharing
// mechanism of the paper's Section III-B:
//
//   - context and information methods (session, context, queue, buffer,
//     program and kernel management) execute synchronously; the board
//     reconfiguration request is the one blocking member of this group;
//   - command-queue methods (enqueue write/read/kernel) accumulate into
//     the client's current multi-operation task, the atomic unit of
//     execution; a flush seals the task and submits it to the manager's
//     central FIFO queue;
//   - a worker pulls tasks and executes them on the FPGA one at a time,
//     notifying the per-operation events back to the caller as each
//     operation completes;
//   - each client's resource pool (buffers, kernels, queues) is private,
//     enforcing isolation between tenants sharing the board;
//   - data moves inline over the RPC channel or through a per-client
//     shared-memory segment;
//   - runtime metrics (above all the FPGA time utilization) are exported
//     in the Prometheus text format for the Accelerators Registry.
package manager

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/datacache"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/sched"
	"blastfunction/internal/wire"
)

// Config parameterizes a Device Manager.
type Config struct {
	// Node is the node name the manager runs on; clients compare it with
	// their own to decide whether shared memory is possible.
	Node string
	// DeviceID names the managed board in metrics and the Registry.
	DeviceID string
	// QueueCapacity bounds the central task queue; submissions block when
	// it is full (backpressure). Zero selects 1024.
	QueueCapacity int
	// ReconfigGate, when set, validates reconfiguration requests before
	// they reach the board. No binary installs one: the Registry's
	// ValidateReconfiguration, closed over the device ID, could enforce
	// its allocation decisions here, but only tests wire a gate in.
	ReconfigGate func(clientName, bitstreamID string) error
	// LeaseDuration bounds how long a session survives without traffic.
	// The manager advertises it at Hello; clients heartbeat at a third of
	// it, and any request renews the lease. A session silent past the
	// duration is expired: its queues, buffers and in-flight task slots are
	// reclaimed exactly as on disconnect, and deferred acknowledgements
	// fail with OpFailed before the connection is closed. Zero disables
	// leases.
	LeaseDuration time.Duration
	// Scheduler selects the central-queue discipline: "fifo" (default,
	// the paper's strict arrival order) or "drr" (deficit round-robin
	// weighted fair queuing across tenants). An unknown name falls back
	// to fifo so a misconfigured manager still serves paper-faithfully.
	Scheduler string
	// TenantWeights assigns drr fair-share weights by client name; the
	// operator table overrides weights carried in Hello (the Registry
	// binding), and tenants with neither get weight 1.
	TenantWeights map[string]int
	// StarvationGuard bounds any tenant's queue wait under drr: an item
	// older than the guard is served next regardless of deficits. Zero
	// selects the sched default (2s); negative disables the guard.
	StarvationGuard time.Duration
	// Log receives the manager's structured events (lease expiries, task
	// failures, reconfigurations), trace-correlated where a task caused
	// them. A nil logger logs nothing — the zero-cost production default
	// for the hot path.
	Log *logx.Logger
	// BufferCacheBytes bounds the content-addressed device buffer cache
	// (repeated CreateBuffer payloads upload once per board). Zero selects
	// 256 MiB; negative disables the cache, making every content-hash
	// probe a miss.
	BufferCacheBytes int64
	// FlashHistoryPath is the flash service's durable JSONL ledger of
	// board reprogrammings, reloaded on restart; empty keeps the history
	// in memory only.
	FlashHistoryPath string
	// FlightRing bounds the flight recorder's in-memory ring (whole task
	// skeletons, served at /debug/flight). Zero selects the flightrec
	// default (1024).
	FlightRing int
	// FlightLedgerPath is the durable JSONL spill file for notable
	// flights (failed tasks, tail-latency outliers); empty keeps flights
	// in memory only.
	FlightLedgerPath string
	// NoFlightRecorder disables the always-on flight recorder entirely —
	// the recorder-overhead benchmark's baseline, not a production knob.
	NoFlightRecorder bool
}

// Manager serves one board. It implements rpc.Handler.
type Manager struct {
	cfg   Config
	board *fpga.Board
	reg   *metrics.Registry

	disc  sched.Discipline
	queue sched.Queue

	mu       sync.Mutex
	sessions map[uint64]*session
	nextSess uint64
	closed   bool

	wg        sync.WaitGroup
	stopSweep chan struct{}

	// Counters behind the exported metrics.
	mConnected  metrics.Gauge
	mTasks      metrics.Counter
	mOps        metrics.Counter
	mQueueDepth metrics.Gauge
	mBusy       metrics.Counter
	mScale      metrics.Gauge
	mReconfigs  metrics.Counter
	mBytesIn    metrics.Counter
	mBytesOut   metrics.Counter
	mKernels    metrics.Counter
	mLeaseExp   metrics.Counter
	mTaskHist   metrics.Histogram
	// mReconfigHist distributes per-flash reprogramming time next to the
	// bf_reconfigurations_total counter (alerting reads the rate of the
	// counter, capacity planning the histogram).
	mReconfigHist metrics.Histogram
	mBufInval     metrics.Counter

	// flash serializes board reprogramming: every BuildProgram becomes a
	// job, concurrent demand for one bitstream coalesces onto one flash.
	flash *flash.Service

	// Data-plane reuse layer: content-addressed buffer cache and
	// device-to-device copy accounting.
	bufcache     *datacache.BufferCache // nil when disabled
	mBufHits     metrics.Counter
	mBufMisses   metrics.Counter
	mBufSaved    metrics.Counter
	mBufEvict    metrics.Counter
	gBufResident metrics.Gauge
	gBufEntries  metrics.Gauge
	mCopies      metrics.Counter
	mCopyBytes   metrics.Counter

	// Per-tenant series (device/node/tenant labels), created at the
	// tenant's first Hello.
	tmu     sync.Mutex
	tenants map[string]*tenantMetrics

	// stages are the bf_stage_seconds series of client-sampled tasks; the
	// manager never samples, it follows the trace ID on the wire.
	stages stageHists

	// log receives structured events; nil-safe (see Config.Log).
	log *logx.Logger

	// flight is the always-on task flight recorder: every task leaves a
	// milestone skeleton at /debug/flight whether or not it was sampled.
	// Nil only under Config.NoFlightRecorder (all calls no-op).
	flight *flightrec.Recorder

	lastBusy atomic.Int64 // last board busy reading pushed to mBusy
}

// tenantMetrics is one tenant's exported series plus the raw cumulative
// device time backing the occupancy-share computation.
type tenantMetrics struct {
	depth     metrics.Gauge     // bf_tenant_queue_depth
	waitTotal metrics.Counter   // bf_tenant_queue_wait_seconds_total
	waitHist  metrics.Histogram // bf_tenant_queue_wait_seconds (alerting reads its p95)
	deviceSec metrics.Counter   // bf_tenant_device_seconds_total
	tasks     metrics.Counter   // bf_tenant_tasks_total
	latHist   metrics.Histogram // bf_task_latency_seconds (SLO latency SLI)
	failures  metrics.Counter   // bf_tenant_task_failures_total (SLO availability SLI)
	deviceNS  atomic.Int64
}

// tenantMetric returns (creating on first use) the tenant's series.
func (m *Manager) tenantMetric(tenant string) *tenantMetrics {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tm, ok := m.tenants[tenant]
	if !ok {
		lbl := metrics.Labels{"device": m.cfg.DeviceID, "node": m.cfg.Node, "tenant": tenant}
		tm = &tenantMetrics{
			depth:     m.reg.Gauge("bf_tenant_queue_depth", "Tasks a tenant has waiting in the central queue.", lbl),
			waitTotal: m.reg.Counter("bf_tenant_queue_wait_seconds_total", "Cumulative queue wait of the tenant's executed tasks.", lbl),
			waitHist:  m.reg.Histogram("bf_tenant_queue_wait_seconds", "Queue-wait distribution of the tenant's executed tasks.", lbl, nil),
			deviceSec: m.reg.Counter("bf_tenant_device_seconds_total", "Modelled device time consumed by the tenant.", lbl),
			tasks:     m.reg.Counter("bf_tenant_tasks_total", "Tasks of the tenant that ended: executed, failed before execution or refused by the queue.", lbl),
			latHist:   m.reg.Histogram("bf_task_latency_seconds", "End-to-end task residency (submit to completion) per tenant; carries trace exemplars.", lbl, nil),
			failures:  m.reg.Counter("bf_tenant_task_failures_total", "Tasks of the tenant that failed: an operation failed, the session lease expired, or the queue refused them.", lbl),
		}
		m.tenants[tenant] = tm
	}
	return tm
}

// New creates a Device Manager for the board and starts its worker.
func New(cfg Config, board *fpga.Board) *Manager {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.DeviceID == "" {
		cfg.DeviceID = "fpga0"
	}
	// An unknown discipline name falls back to fifo: a misconfigured
	// manager still serves tasks in the paper's arrival order.
	disc, err := sched.ParseDiscipline(cfg.Scheduler)
	if err != nil {
		disc = sched.FIFO
	}
	q, _ := sched.New(disc, sched.Config{ // disc is a known discipline
		Capacity:        cfg.QueueCapacity,
		Weights:         cfg.TenantWeights,
		StarvationGuard: cfg.StarvationGuard,
	})
	reg := metrics.NewRegistry()
	lbl := metrics.Labels{"device": cfg.DeviceID, "node": cfg.Node}
	m := &Manager{
		cfg:      cfg,
		board:    board,
		reg:      reg,
		disc:     disc,
		queue:    q,
		sessions: make(map[uint64]*session),
		tenants:  make(map[string]*tenantMetrics),

		mConnected:  reg.Gauge("bf_connected_clients", "Function instances connected to this Device Manager.", lbl),
		mTasks:      reg.Counter("bf_tasks_total", "Tasks executed on the device.", lbl),
		mOps:        reg.Counter("bf_ops_total", "Operations executed on the device.", lbl),
		mQueueDepth: reg.Gauge("bf_queue_depth", "Tasks waiting in the central queue.", lbl),
		mBusy:       reg.Counter("bf_device_busy_seconds_total", "Modelled seconds the device spent computing OpenCL calls.", lbl),
		mScale:      reg.Gauge("bf_device_time_scale", "Wall seconds per modelled second (board TimeScale).", lbl),
		mReconfigs:  reg.Counter("bf_reconfigurations_total", "Board reconfigurations performed.", lbl),
		mBytesIn:    reg.Counter("bf_bytes_in_total", "Bytes written to the device.", lbl),
		mBytesOut:   reg.Counter("bf_bytes_out_total", "Bytes read from the device.", lbl),
		mKernels:    reg.Counter("bf_kernel_runs_total", "Kernel launches executed.", lbl),
		mLeaseExp:   reg.Counter("bf_lease_expiries_total", "Sessions reclaimed after their lease expired.", lbl),
		mTaskHist: reg.Histogram("bf_task_device_seconds",
			"Modelled device occupancy per executed task.", lbl, nil),
		mReconfigHist: reg.Histogram("bf_reconfig_seconds",
			"Modelled board reprogramming time per reconfiguration.", lbl, nil),
		mBufInval: reg.Counter("bf_bufcache_invalidations_total",
			"Cached buffers dropped because a reconfiguration changed the memory geometry.", lbl),
		mBufHits:     reg.Counter("bf_bufcache_hits_total", "Content-hashed buffer creates served from resident device buffers.", lbl),
		mBufMisses:   reg.Counter("bf_bufcache_misses_total", "Content-hashed buffer creates that uploaded a new payload.", lbl),
		mBufSaved:    reg.Counter("bf_bufcache_bytes_saved_total", "Payload bytes the buffer cache kept off the wire and the PCIe link.", lbl),
		mBufEvict:    reg.Counter("bf_bufcache_evictions_total", "Idle cached buffers evicted to respect the cache byte bound.", lbl),
		gBufResident: reg.Gauge("bf_bufcache_resident_bytes", "Device memory held by the content-addressed buffer cache.", lbl),
		gBufEntries:  reg.Gauge("bf_bufcache_entries", "Buffers resident in the content-addressed cache.", lbl),
		mCopies:      reg.Counter("bf_copy_ops_total", "Device-to-device buffer copies executed (task chaining).", lbl),
		mCopyBytes:   reg.Counter("bf_copy_bytes_total", "Bytes moved by device-to-device buffer copies.", lbl),
		log:          cfg.Log,
	}
	m.mScale.Set(board.Config().TimeScale)
	if !cfg.NoFlightRecorder {
		m.flight = flightrec.New(flightrec.Config{
			Process:    "manager/" + cfg.DeviceID,
			Flights:    cfg.FlightRing,
			LedgerPath: cfg.FlightLedgerPath,
		})
	}
	if cfg.BufferCacheBytes >= 0 {
		capBytes := cfg.BufferCacheBytes
		if capBytes == 0 {
			capBytes = 256 << 20
		}
		// The eviction callback returns board memory; it only ever fires
		// for idle entries, so freeing here cannot race a kernel argument.
		m.bufcache = datacache.NewBufferCache(capBytes, func(boardID uint64) {
			board.Free(boardID)
			m.mBufEvict.Inc()
		})
	}
	// The flash service owns every board reprogramming: one active flash,
	// FIFO within priority, durable history, coalesced concurrent demand.
	// An unopenable history file degrades to in-memory history rather
	// than refusing to serve the board.
	fl, err := flash.New(flash.Config{
		Flasher:     m.flashBoard,
		HistoryPath: cfg.FlashHistoryPath,
		Metrics:     reg,
		Labels:      lbl,
		Log:         cfg.Log,
	})
	if err != nil {
		cfg.Log.Warn("flash history unavailable, keeping history in memory",
			"path", cfg.FlashHistoryPath, "err", err)
		fl, _ = flash.New(flash.Config{
			Flasher: m.flashBoard, Metrics: reg, Labels: lbl, Log: cfg.Log,
		})
	}
	m.flash = fl
	m.wg.Add(1)
	go m.worker()
	if cfg.LeaseDuration > 0 {
		m.stopSweep = make(chan struct{})
		m.wg.Add(1)
		go m.leaseSweeper()
	}
	return m
}

// MetricsHandler serves the manager's metrics in exposition format.
func (m *Manager) MetricsHandler() http.Handler { return m.reg.Handler() }

// Metrics exposes the registry for in-process consumers (tests, embedded
// deployments).
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Close stops the worker after draining submitted tasks. Connections are
// owned by the rpc.Server and closed there.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	if m.stopSweep != nil {
		close(m.stopSweep)
	}
	m.queue.Close() // the worker drains what is queued, then exits
	m.wg.Wait()
	m.flash.Close() // fails queued flashes, finishes the in-flight one
	m.flight.Close()
}

// Flight exposes the manager's flight recorder (nil-safe; nil when
// disabled).
func (m *Manager) Flight() *flightrec.Recorder { return m.flight }

// FlightHandler serves the flight ring at /debug/flight.
func (m *Manager) FlightHandler() http.Handler { return m.flight.Handler() }

// leaseSweeper periodically expires sessions whose lease ran out. Checking
// at a quarter of the lease keeps the detection latency well under half a
// lease period.
func (m *Manager) leaseSweeper() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.LeaseDuration / 4)
	defer tick.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case <-tick.C:
			m.sweepLeases(time.Now())
		}
	}
}

// sweepLeases expires every session silent past the lease duration.
func (m *Manager) sweepLeases(now time.Time) {
	deadline := now.Add(-m.cfg.LeaseDuration).UnixNano()
	m.mu.Lock()
	var dead []*session
	for _, s := range m.sessions {
		if s.lastBeat.Load() < deadline {
			dead = append(dead, s)
		}
	}
	for _, s := range dead {
		delete(m.sessions, s.id)
	}
	m.mu.Unlock()
	for _, s := range dead {
		m.expireSession(s)
	}
}

// expireSession reclaims an expired session: in-flight task slots fail
// fast, deferred acknowledgements are terminated with OpFailed while the
// connection can still carry them, board resources are freed, and finally
// the connection is closed (a wedged client that recovers must re-Hello).
func (m *Manager) expireSession(s *session) {
	s.expired.Store(true)
	// Pull the session's queued tasks out of whichever structure the
	// discipline holds them in: they fail here without ever occupying the
	// board, instead of waiting for the worker's expired-session check.
	m.log.Warn("session lease expired", "client", s.clientName, "session", s.id)
	for _, it := range m.queue.Remove(s.id) {
		t := it.Payload.(*task)
		t.sess.tm.depth.Add(-1)
		m.end(t, nil, "session lease expired while queued")
	}
	m.flight.MarkNotable(s.flight, "lease-expired")
	m.flight.Complete(s.flight, 0, true, "lease expired")
	m.mQueueDepth.Set(float64(m.queue.Len()))
	s.expire(m)
	m.mLeaseExp.Inc()
	if s.conn != nil {
		s.conn.Close()
	}
}

// worker is the single executor pulling tasks from the central queue
// under the configured discipline — one task occupies the FPGA at a
// time. The queue's close-drain semantics keep shutdown identical to the
// old channel ranging: everything submitted before Close still runs.
func (m *Manager) worker() {
	defer m.wg.Done()
	var nb notifyBatcher // one batcher, re-pointed at each task
	for {
		it, ok := m.queue.Pop(context.Background())
		if !ok {
			return
		}
		t := it.Payload.(*task)
		t.popped = time.Now()
		m.mQueueDepth.Set(float64(m.queue.Len()))
		t.sess.tm.depth.Add(-1)
		if t.sess.expired.Load() {
			// The lease sweeper reclaimed this session between submit and
			// execution: its buffers are freed, so running would fault.
			// The task fails without occupying the board.
			m.end(t, nil, "session lease expired")
		} else {
			m.runTask(t, &nb)
		}
		t.sess.recycle(t)
		m.syncBoardCounters()
	}
}

// syncBoardCounters pushes the board's cumulative counters into the
// exported metrics.
func (m *Manager) syncBoardCounters() {
	st := m.board.Stats()
	busy := int64(st.BusyTime)
	prev := m.lastBusy.Swap(busy)
	if busy > prev {
		m.mBusy.Add(time.Duration(busy - prev).Seconds())
	}
}

// HandleConnect implements rpc.Handler.
func (m *Manager) HandleConnect(c *rpc.Conn) {
	m.mConnected.Add(1)
}

// HandleDisconnect implements rpc.Handler: release the client's private
// resource pool.
func (m *Manager) HandleDisconnect(c *rpc.Conn) {
	m.mConnected.Add(-1)
	s, _ := c.Session().(*session)
	if s == nil {
		return
	}
	m.mu.Lock()
	delete(m.sessions, s.id)
	m.mu.Unlock()
	m.log.Debug("session closed", "client", s.clientName, "session", s.id)
	s.release(m)
}

// HandleRequest implements rpc.Handler, dispatching the Device Manager
// service methods.
func (m *Manager) HandleRequest(c *rpc.Conn, method wire.Method, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	if method == wire.MethodHello {
		return m.handleHello(c, d)
	}
	s, _ := c.Session().(*session)
	if s == nil {
		return nil, ocl.Errf(ocl.ErrInvalidOperation, "no session: Hello required first")
	}
	// Any request proves the client is alive; dedicated heartbeats only
	// matter on otherwise idle sessions.
	s.lastBeat.Store(time.Now().UnixNano())
	switch method {
	case wire.MethodHeartbeat:
		// Consecutive renewals coalesce into one counted milestone on the
		// session's flight, so an idle hour reads as "lease-renewal ×120".
		m.flight.Record(s.flight, flightrec.Event{Kind: flightrec.KindLease})
		return nil, nil // the renewal above is the whole effect
	case wire.MethodDeviceInfo:
		return m.handleDeviceInfo()
	case wire.MethodCreateContext:
		return s.createContext()
	case wire.MethodReleaseContext:
		return s.releaseContext(d)
	case wire.MethodCreateQueue:
		return s.createQueue(d)
	case wire.MethodReleaseQueue:
		return s.releaseQueue(m, c, d)
	case wire.MethodCreateBuffer:
		return s.createBuffer(m, d)
	case wire.MethodReleaseBuffer:
		return s.releaseBuffer(m, d)
	case wire.MethodCreateProgram:
		return s.createProgram(m.board, d)
	case wire.MethodBuildProgram:
		return m.handleBuildProgram(s, d)
	case wire.MethodCreateKernel:
		return s.createKernel(d)
	case wire.MethodReleaseKernel:
		return s.releaseKernel(d)
	case wire.MethodSetKernelArg:
		return s.setKernelArg(d)
	case wire.MethodSetupShm:
		return s.setupShm(d)
	case wire.MethodEnqueueWrite:
		return s.enqueueWrite(m, c, d)
	case wire.MethodEnqueueRead:
		return s.enqueueRead(m, c, d)
	case wire.MethodEnqueueKernel:
		return s.enqueueKernel(m, c, d)
	case wire.MethodEnqueueCopy:
		return s.enqueueCopy(m, c, d)
	case wire.MethodFlush:
		return s.flush(m, c, d)
	}
	return nil, ocl.Errf(ocl.ErrInvalidOperation, "unknown method %v", method)
}

func (m *Manager) handleHello(c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.HelloRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed Hello: %v", err)
	}
	// Library and manager are built together: any other revision is skew.
	if req.ProtoVersion != wire.ProtoVersion {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "protocol version %d, manager speaks %d",
			req.ProtoVersion, wire.ProtoVersion)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ocl.Errf(ocl.ErrDeviceNotAvailable, "manager shutting down")
	}
	m.nextSess++
	s := newSession(m.nextSess, req.ClientName)
	s.conn = c
	s.log = m.log.With("client", s.clientName)
	s.tm = m.tenantMetric(s.clientName)
	// The fair-share weight travels with the instance binding (Registry →
	// gateway → Hello); the manager's static table, when set, wins inside
	// the queue's weight resolution.
	s.weight = int(req.Weight)
	s.lastBeat.Store(time.Now().UnixNano())
	m.sessions[s.id] = s
	m.mu.Unlock()
	c.SetSession(s)
	// Session-scoped milestones (cache probes, flash waits, lease
	// renewals) attach to a synthetic per-session flight: they happen
	// outside any task, before a trace can exist.
	s.flight = m.flight.Begin(0, s.clientName)
	m.log.Debug("session opened", "client", s.clientName, "session", s.id)

	e := wire.GetEncoder(32)
	(&wire.HelloResponse{SessionID: s.id, Node: m.cfg.Node, Proto: wire.ProtoVersion,
		LeaseMillis: uint32(max(m.cfg.LeaseDuration, 0) / time.Millisecond)}).Encode(e)
	return e.Detach(), nil
}

func (m *Manager) handleDeviceInfo() ([]byte, error) {
	cfg := m.board.Config()
	// Advertise the wall-clock reprogramming cost so clients size their
	// BuildProgram deadline to outlive a flash: modelled reconfiguration
	// time scaled into real time, rounded up to a whole millisecond. A
	// zero TimeScale flashes in no wall time, so nothing is advertised.
	var reconfigMillis uint32
	if ts := cfg.TimeScale; ts > 0 && cfg.Cost != nil {
		wall := time.Duration(float64(cfg.Cost.ReconfigureTime) * ts)
		reconfigMillis = uint32((wall + time.Millisecond - 1) / time.Millisecond)
	}
	e := wire.GetEncoder(128)
	(&wire.DeviceInfoResponse{
		Name:           cfg.Name,
		Vendor:         cfg.Vendor,
		PlatformName:   "Intel(R) FPGA SDK for OpenCL(TM) (BlastFunction remote)",
		GlobalMem:      cfg.MemBytes,
		ConfiguredBit:  m.board.ConfiguredID(),
		Accelerator:    m.board.ConfiguredAccelerator(),
		ReconfigMillis: reconfigMillis,
	}).Encode(e)
	return e.Detach(), nil
}

// handleBuildProgram is the blocking board-reconfiguration request: it is
// the only context/information method that stalls the device. The actual
// reprogramming goes through the flash service — this handler submits a
// job and blocks on its outcome, so concurrent Builds for the same
// bitstream coalesce onto one flash instead of serializing on the board
// mutex one no-op at a time.
func (m *Manager) handleBuildProgram(s *session, d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed BuildProgram: %v", err)
	}
	binary, bitID, err := s.programBinary(req.ID)
	if err != nil {
		return nil, err
	}
	if m.board.ConfiguredID() == bitID {
		return nil, nil // already configured: cheap no-op as in the Intel runtime
	}
	if gate := m.cfg.ReconfigGate; gate != nil {
		if err := gate(s.clientName, bitID); err != nil {
			m.log.Warn("reconfiguration rejected", "client", s.clientName, "bitstream", bitID, "err", err)
			return nil, ocl.Errf(ocl.ErrInvalidOperation, "reconfiguration rejected: %v", err)
		}
	}
	var accel string
	if bs, lerr := m.board.Catalog().Lookup(bitID); lerr == nil {
		accel = bs.Accelerator
	}
	ticket := m.flash.Submit(flash.Request{
		Board:       m.cfg.DeviceID,
		Bitstream:   bitID,
		Accelerator: accel,
		Requester:   s.clientName,
		Binary:      binary,
	})
	m.flight.Record(s.flight, flightrec.Event{Kind: flightrec.KindFlashJoin, Detail: bitID})
	waitStart := time.Now()
	err = ticket.Wait(context.Background())
	m.flight.Record(s.flight, flightrec.Event{
		Kind: flightrec.KindFlashWait, Detail: bitID, Dur: time.Since(waitStart)})
	if err != nil {
		m.flight.Record(s.flight, flightrec.Event{
			Kind: flightrec.KindFailure, Detail: "reconfiguration failed: " + err.Error()})
		m.flight.MarkNotable(s.flight, "reconfiguration failed")
		m.log.Error("board reconfiguration failed", "client", s.clientName, "bitstream", bitID, "err", err)
		return nil, err
	}
	m.log.Info("board reconfigured", "client", s.clientName, "bitstream", bitID)
	return nil, nil
}

// flashBoard is the flash service's executor: the one place a bitstream
// reaches the board. It runs on the flash worker goroutine, so post-flash
// bookkeeping (metrics, cache invalidation) happens exactly once per
// flash no matter how many requesters coalesced onto the job.
func (m *Manager) flashBoard(job flash.Job, binary []byte) (time.Duration, error) {
	oldGeom := m.board.MemGeometry()
	d, err := m.board.Configure(binary)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, nil // raced an identical configure: no-op
	}
	m.mReconfigs.Inc()
	m.mReconfigHist.Observe(d.Seconds())
	// Cached device buffers survive a reflash only while the new design
	// addresses DDR the same way; a geometry change makes every resident
	// buffer unreachable garbage.
	if m.bufcache != nil && m.board.MemGeometry() != oldGeom {
		if n := m.bufcache.Invalidate(); n > 0 {
			m.mBufInval.Add(float64(n))
			m.log.Info("buffer cache invalidated: memory geometry changed",
				"entries", n, "bitstream", job.Bitstream)
		}
	}
	m.syncCacheGauges()
	m.syncBoardCounters()
	return d, nil
}

// Flash exposes the board's flash service (history, queue state, the
// /debug/flash handler).
func (m *Manager) Flash() *flash.Service { return m.flash }

// submit places a sealed task on the central queue. The item's cost is
// the task's operation count: a multi-op task charges its tenant
// proportionally under drr, matching the paper's observation that task
// length drives board occupancy. A task the queue refuses ends here.
func (m *Manager) submit(t *task) {
	t.item = sched.Item{
		Session: t.sess.id,
		Tenant:  t.sess.clientName,
		Weight:  t.sess.weight,
		Cost:    int64(len(t.ops)),
		Payload: t,
	}
	// Alloc, not Begin: the task's flight is admitted by end's
	// CompleteWith in one locked pass; reserving the key costs one atomic.
	t.flight = m.flight.Alloc(obs.TraceID(t.trace))
	if m.queue.Push(&t.item) != nil {
		m.end(t, nil, "manager shutting down") // Push fails only once the queue is closed
		return
	}
	m.mQueueDepth.Set(float64(m.queue.Len()))
	t.sess.tm.depth.Add(1)
}

// Sessions reports the number of live sessions (diagnostics).
func (m *Manager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// String describes the manager for logs.
func (m *Manager) String() string {
	return fmt.Sprintf("manager(%s@%s)", m.cfg.DeviceID, m.cfg.Node)
}
