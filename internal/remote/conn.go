package remote

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/shm"
	"blastfunction/internal/wire"
)

// managerConn is the library's connection to one Device Manager: the RPC
// client, the negotiated data path and the tag table of in-flight events.
// It is its client's rpc.NotifyHandler: the client's read loop is the
// paper's connection thread, and drives the events' state machines.
type managerConn struct {
	cfg  *Config
	addr string
	rpc  *rpc.Client

	sessionID uint64
	node      string
	info      wire.DeviceInfoResponse

	seg   *shm.Segment
	arena *shm.Arena
	mode  model.Transport

	tags      atomic.Uint64
	pendingMu sync.Mutex
	pending   map[uint64]*remoteEvent // in-flight events by tag

	// log records structured events; nil-safe.
	log *logx.Logger
	// flight is the process's flight recorder (Config.Flight; nil-safe).
	// connFlight is the connection's synthetic session flight: lease
	// renewals and connection-level failures land there, task milestones
	// on their own per-task flights.
	flight     *flightrec.Recorder
	connFlight obs.TraceID

	// Notification decoding scratch, used only on the read loop.
	dec  wire.Decoder
	note wire.OpNotification

	// lease is the session lease the manager advertised at Hello (zero:
	// leases disabled); stopBeat stops the heartbeat goroutine renewing it.
	lease    time.Duration
	stopBeat chan struct{}

	closedMu sync.Mutex
	closed   bool
}

// newRPCClient starts a connection's rpc client; tests wrap its handler.
var newRPCClient = rpc.NewClient

func dialManager(cfg *Config, addr string) (*managerConn, error) {
	dial := cfg.DialConn
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	mc := &managerConn{cfg: cfg, addr: addr, mode: model.TransportGRPC, log: cfg.Log, flight: cfg.Flight,
		pending: make(map[uint64]*remoteEvent)}
	mc.connFlight = mc.flight.Begin(0, cfg.ClientName)
	cl := newRPCClient(conn, mc)
	cl.CallTimeout = cfg.CallTimeout
	mc.rpc = cl

	// Hello: open the session. Not retried — a timed-out Hello may still
	// have created a session on the manager, and retrying would leak it.
	e := wire.GetEncoder(64)
	(&wire.HelloRequest{ClientName: cfg.ClientName, ProtoVersion: wire.ProtoVersion, Weight: uint32(max(cfg.Weight, 0))}).Encode(e)
	resp, err := cl.Call(wire.MethodHello, e.Bytes())
	e.Release()
	if err != nil {
		cl.Close()
		return nil, err
	}
	var hello wire.HelloResponse
	hello.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	// Library and manager are built together: a different echoed revision
	// (or a Hello too short to carry one) is skew.
	if hello.Proto != wire.ProtoVersion {
		cl.Close()
		return nil, ocl.Errf(ocl.ErrInvalidValue, "manager speaks protocol version %d, library %d",
			hello.Proto, wire.ProtoVersion)
	}
	mc.sessionID = hello.SessionID
	mc.node = hello.Node
	mc.lease = time.Duration(hello.LeaseMillis) * time.Millisecond

	// Device information for the platform list. Idempotent, so a slow
	// manager gets retried with jittered backoff; the session ID makes the
	// schedule deterministic per session.
	resp, err = cl.CallRetry(rpc.DefaultBackoff(mc.sessionID), 0, wire.MethodDeviceInfo, nil)
	if err != nil {
		cl.Close()
		return nil, err
	}
	mc.info.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)

	// Negotiate the data path. Shared memory requires co-location: the
	// manager must report the client's node (or the check is disabled).
	wantShm := cfg.Transport != TransportGRPC
	colocated := cfg.Node == "" || cfg.Node == mc.node
	if wantShm && colocated {
		if err := mc.setupShm(); err != nil {
			if cfg.Transport == TransportShm {
				cl.Close()
				return nil, err
			}
			// TransportAuto degrades to the RPC data path, like the paper
			// when "it is not possible to create a shared memory area".
			mc.log.Info("shared memory unavailable, using rpc data path",
				"manager", addr, "err", err)
		}
	} else if cfg.Transport == TransportShm {
		cl.Close()
		return nil, ocl.Errf(ocl.ErrInvalidOperation,
			"shm transport requires co-location (client node %q, manager node %q)", cfg.Node, mc.node)
	}

	mc.log.Debug("connected to manager",
		"manager", addr, "node", mc.node, "session", mc.sessionID,
		"transport", mc.mode.String())
	if mc.lease > 0 {
		mc.stopBeat = make(chan struct{})
		go mc.heartbeatLoop()
	}
	return mc, nil
}

// heartbeatLoop renews the session lease. A third of the lease gives the
// manager two missed beats of slack before expiry, mirroring common lease
// protocols. A deadline-expired beat is retried at the next tick (the lease
// has slack for that); a dead connection ends the loop — reconnection is a
// new session.
func (mc *managerConn) heartbeatLoop() {
	t := time.NewTicker(mc.lease / 3)
	defer t.Stop()
	for {
		select {
		case <-mc.stopBeat:
			return
		case <-t.C:
			body, err := mc.rpc.CallWithTimeout(wire.MethodHeartbeat, mc.lease/3)
			wire.PutBuf(body)
			if err != nil && (errors.Is(err, rpc.ErrManagerDown) || errors.Is(err, rpc.ErrClosed)) {
				mc.flight.Record(mc.connFlight, flightrec.Event{
					Kind: flightrec.KindFailure, Detail: "heartbeat stopped: manager connection down"})
				mc.log.Warn("heartbeat stopped: manager connection down", "manager", mc.addr)
				return
			}
			// Renewals coalesce into one counted milestone on the
			// connection's flight.
			mc.flight.Record(mc.connFlight, flightrec.Event{Kind: flightrec.KindLease})
		}
	}
}

func (mc *managerConn) setupShm() error {
	seg, err := shm.Create(mc.cfg.ShmDir, mc.cfg.ShmBytes)
	if err != nil {
		return err
	}
	e := wire.GetEncoder(64)
	(&wire.SetupShmRequest{Path: seg.Path(), Size: seg.Size()}).Encode(e)
	resp, err := mc.rpc.Call(wire.MethodSetupShm, e.Bytes())
	e.Release()
	wire.PutBuf(resp)
	if err != nil {
		seg.Close()
		return err
	}
	mc.seg = seg
	mc.arena = shm.NewArena(seg.Size())
	mc.mode = model.TransportShm
	return nil
}

func (mc *managerConn) transport() model.Transport { return mc.mode }

// buildTimeout sizes the BuildProgram deadline: the configured call
// timeout plus twice the manager's advertised reprogramming cost (queue
// wait behind another flash plus the flash itself). Managers that do not
// advertise fall back to the plain call timeout.
func (mc *managerConn) buildTimeout() time.Duration {
	base := mc.cfg.CallTimeout
	if base <= 0 {
		base = rpc.DefaultCallTimeout
	}
	if ms := mc.info.ReconfigMillis; ms > 0 {
		return base + 2*time.Duration(ms)*time.Millisecond
	}
	return base
}

func (mc *managerConn) isClosed() bool {
	mc.closedMu.Lock()
	defer mc.closedMu.Unlock()
	return mc.closed
}

func (mc *managerConn) close() error {
	mc.closedMu.Lock()
	if mc.closed {
		mc.closedMu.Unlock()
		return nil
	}
	mc.closed = true
	mc.closedMu.Unlock()
	if mc.stopBeat != nil {
		close(mc.stopBeat)
	}
	err := mc.rpc.Close()
	if mc.seg != nil {
		mc.seg.Close()
	}
	return err
}

// Notify is the paper's connection thread at work (steps 5 and 6 of
// Figure 2): the read loop hands it each notification frame, a batch (one
// per task) whose tags it looks up to advance their events' state
// machines. Decoded Data aliases the read loop's payload, which is safe
// because finishRead copies read results into the user buffer inside
// machine. An inline read in a frame larger than the read loop's buffer
// arrives with its Data already in the user buffer (see Land) and empty
// here.
func (mc *managerConn) Notify(payload []byte) {
	d, n := &mc.dec, &mc.note
	d.Reset(payload)
	for count := d.U32(); count > 0; count-- {
		n.Decode(d)
		if d.Err() != nil {
			break // malformed notification; drop rather than crash
		}
		mc.dispatch(n)
	}
}

// Lost fails everything still in flight once the connection is gone,
// promptly and with the transport sentinel attached so callers can
// errors.Is the failure against rpc.ErrManagerDown and trigger fail-over
// instead of treating it like an application error.
func (mc *managerConn) Lost() {
	mc.pendingMu.Lock()
	lost := mc.pending
	mc.pending = make(map[uint64]*remoteEvent)
	mc.pendingMu.Unlock()
	// One terminal milestone per task flight, not one per op, completed
	// from the task's final op when it is among the lost: only that op
	// carries the milestones batched on the queue.
	ends := make(map[obs.TraceID]*remoteEvent)
	for _, ev := range lost {
		if end := ends[ev.flight]; ev.flight != 0 && (end == nil || !end.taskEnd.Load()) {
			ends[ev.flight] = ev
		}
	}
	for _, ev := range ends {
		ev.endFlight(mc, "connection to manager lost")
	}
	for _, ev := range lost {
		if ev.trace != 0 {
			// Correlate the connection loss with every traced in-flight
			// operation it kills.
			mc.log.Warn("in-flight operation failed: connection lost",
				"manager", mc.addr, "trace", ev.trace)
		}
		ev.Fail(ocl.ErrfCause(ocl.ErrDeviceNotAvailable, rpc.ErrManagerDown,
			"connection to %s lost", mc.addr))
	}
	if len(lost) > 0 {
		mc.flight.Record(mc.connFlight, flightrec.Event{
			Kind: flightrec.KindFailure, Detail: "connection lost with operations in flight"})
		mc.flight.MarkNotable(mc.connFlight, "connection lost")
		mc.log.Warn("connection to manager lost", "manager", mc.addr, "in_flight", len(lost))
	}
}

// dispatch routes one notification to its event's state machine; a
// terminal one retires the tag.
func (mc *managerConn) dispatch(n *wire.OpNotification) {
	mc.pendingMu.Lock()
	ev := mc.pending[n.Tag]
	if n.State == wire.OpComplete || n.State == wire.OpFailed {
		delete(mc.pending, n.Tag)
	}
	mc.pendingMu.Unlock()
	if ev != nil { // nil: already failed locally (e.g. connection race)
		ev.machine(mc, n)
	}
}

// Land returns the destination of the inline read tagged tag, so its n
// result bytes go from the socket straight into the caller's buffer, or
// nil to leave them in the frame for finishRead to copy (a tag no longer
// in flight, an shm read, or more bytes than the destination holds,
// which finishRead truncates).
//
// The bytes land only while the event is in mc.pending, and on the
// goroutine that completes it: the read loop lands a frame's Data before
// it dispatches the frame's notifications, the terminal one carrying that
// Data among them. Only the read loop completes or fails an event in
// mc.pending (Lost included), and the caller does not touch dst until the
// event completes. (A failed send withdraws its event with forget, but the
// manager never ran an operation whose request did not arrive.)
func (mc *managerConn) Land(tag uint64, n int) []byte {
	mc.pendingMu.Lock()
	ev := mc.pending[tag]
	mc.pendingMu.Unlock()
	if ev == nil || ev.shmLen != 0 || n > len(ev.dst) {
		return nil
	}
	return ev.dst
}

// newTag allocates a fresh event tag. Tags start at 1; 0 is reserved.
func (mc *managerConn) newTag() uint64 { return mc.tags.Add(1) }

// register creates an event for an enqueue. The caller publishes it with
// enroll once every field is set — publishing here would let concurrent
// readers of mc.pending (the read loop's Lost sweep) observe
// a half-initialized event.
func (mc *managerConn) register(cmd ocl.CommandType, tag uint64) *remoteEvent {
	ev := &remoteEvent{tag: tag}
	ev.Init(cmd)
	return ev
}

// enroll publishes a fully initialized event into the pending map. Must
// happen before the request frame is sent, so the notification path can
// always find its event.
func (mc *managerConn) enroll(ev *remoteEvent) {
	mc.pendingMu.Lock()
	mc.pending[ev.tag] = ev
	mc.pendingMu.Unlock()
}

// forget withdraws an enrolled event whose request was never sent.
func (mc *managerConn) forget(tag uint64) {
	mc.pendingMu.Lock()
	delete(mc.pending, tag)
	mc.pendingMu.Unlock()
}

// remoteEvent is an ocl event driven by manager notifications. Its state
// machine mirrors the paper's: INIT is the freshly created event, the
// OpAccepted notification is the FIRST step (command enqueued by the
// manager), OpRunning marks device execution (the BUFFER step carries the
// payload for reads), and OpComplete/OpFailed terminate it.
type remoteEvent struct {
	ocl.BaseEvent
	tag uint64

	// queue backlink for implicit flush on Wait (clWaitForEvents flushes).
	queue *commandQueue

	// trace is the task's sampled trace (zero when untraced), carried on
	// the wire and on the op's log events.
	trace obs.TraceID

	// Flight-recorder identity: flight keys the task's milestone skeleton
	// (zero without a recorder), taskStart anchors the client-observed
	// total. taskEnd marks the task's final op (set by Flush on the
	// application thread, read by the read loop once the terminal
	// notification arrives — which cannot precede the flush that sent the
	// task). flightEvs rides on the terminal op: the task's client-side
	// milestones, batched on the queue and applied by the completion in
	// one recorder call (written before the taskEnd store, read after its
	// load).
	flight    obs.TraceID
	taskStart time.Time
	taskEnd   atomic.Bool
	flightEvs []flightrec.Event

	// Read completion plumbing.
	dst       []byte // user destination for reads
	shmOff    int64  // staging range for shm transfers
	shmLen    int64
	freeArena bool // release the staging range on completion
}

// Wait implements ocl.Event with clWaitForEvents semantics: waiting on an
// event of an unflushed command implicitly flushes its queue, otherwise
// the wait could never terminate.
func (ev *remoteEvent) Wait() error {
	if q := ev.queue; q != nil {
		q.ensureFlushed(ev)
	}
	return ev.BaseEvent.Wait()
}

// machine advances the event from a manager notification.
func (ev *remoteEvent) machine(mc *managerConn, n *wire.OpNotification) {
	switch n.State {
	case wire.OpAccepted:
		ev.SetStatus(ocl.Submitted)
	case wire.OpRunning:
		ev.SetStatus(ocl.Running)
	case wire.OpComplete:
		ev.SetDeviceTime(time.Duration(n.DeviceNanos))
		ev.finishRead(mc, n)
		if ev.taskEnd.Load() {
			ev.endFlight(mc, "")
		}
		ev.Complete()
	case wire.OpFailed:
		ev.releaseStaging(mc)
		mc.log.Warn("operation failed", "manager", mc.addr, "error", n.Error, "trace", ev.trace)
		if ev.taskEnd.Load() {
			ev.endFlight(mc, n.Error)
		} else {
			mc.flight.Record(ev.flight, flightrec.Event{
				Kind: flightrec.KindFailure, Detail: n.Error})
			mc.flight.MarkNotable(ev.flight, "operation failed")
		}
		ev.Fail(ocl.Errf(ocl.Status(n.Status), "%s", n.Error))
	}
}

// endFlight completes the task's flight: the client-observed total is
// first enqueue through now, the terminal notification, and a non-empty
// cause fails the flight with that failure milestone. The task's final
// op also applies the milestones the application goroutine batched on
// the queue, in the same recorder call, and hands their array back.
func (ev *remoteEvent) endFlight(mc *managerConn, cause string) {
	if ev.flight == 0 {
		return // no recorder: nothing was batched
	}
	end := time.Now()
	// taskEnd publishes flightEvs (see remoteEvent): an op not yet final
	// may be inside Flush, having them written, and must not read them.
	final := ev.taskEnd.Load()
	var evs []flightrec.Event
	if final {
		evs = ev.flightEvs
	}
	if cause != "" {
		evs = append(evs, flightrec.Event{Kind: flightrec.KindFailure, Detail: cause})
	}
	mc.flight.CompleteWith(ev.flight, mc.cfg.ClientName, evs, end, end.Sub(ev.taskStart), cause != "", cause)
	if final {
		ev.queue.reuseFlightEvs(evs)
		ev.flightEvs = nil
	}
}

// finishRead lands read payloads in the user buffer: the BUFFER step of
// the paper's state machine. For the shm path this is the data plane's
// single copy. An inline result the read loop already landed in ev.dst
// arrives with n.Data empty and is not copied again.
func (ev *remoteEvent) finishRead(mc *managerConn, n *wire.OpNotification) {
	if ev.dst != nil {
		if n.Data != nil {
			copy(ev.dst, n.Data)
		} else if n.ShmLen > 0 && mc.seg != nil {
			if src, err := mc.seg.Range(ev.shmOff, n.ShmLen); err == nil {
				copy(ev.dst, src)
			}
		}
	}
	ev.releaseStaging(mc)
}

func (ev *remoteEvent) releaseStaging(mc *managerConn) {
	if ev.freeArena && mc.arena != nil {
		mc.arena.Free(ev.shmOff, ev.shmLen)
		ev.freeArena = false
	}
}
