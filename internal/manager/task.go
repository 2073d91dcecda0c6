package manager

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/sched"
	"blastfunction/internal/wire"
)

// opKind discriminates task operations.
type opKind uint8

const (
	opWrite opKind = iota + 1
	opRead
	opKernel
	opCopy
)

// String names the kind for op milestones and logs.
func (k opKind) String() string {
	switch k {
	case opWrite:
		return "write"
	case opRead:
		return "read"
	case opKernel:
		return "kernel"
	case opCopy:
		return "copy"
	}
	return "unknown"
}

// op is one operation inside a task. Kernel arguments are snapshotted at
// enqueue time, as clEnqueueNDRangeKernel semantics require.
type op struct {
	kind opKind
	tag  uint64

	// Transfers. Copies use boardBuf/offset as their source and
	// copyDst/dstOff as their destination.
	boardBuf uint64
	offset   int64
	length   int64
	via      wire.DataVia
	data     []byte // inline write payload; aliases frame
	frame    []byte // retained request frame of an inline write, owned until releaseFrame
	shmOff   int64
	copyDst  uint64
	dstOff   int64

	// Kernel launches.
	kernelName string
	args       []ocl.Arg
	global     []int

	// trace is the sampled trace the client's enqueue carried (zero when
	// untraced). ran and took stamp a traced op's board run for its op
	// milestone (zero otherwise, and for an op aborted before it ran).
	trace uint64
	ran   time.Time
	took  time.Duration
}

// task is the atomic unit of execution: the operations a client enqueued
// on one command queue between two flushes. The worker runs its operations
// back to back on the FPGA, which keeps one client's read-kernel-write
// sequences from interleaving with another tenant's.
type task struct {
	// item is the task's central-queue entry; its Payload is the task.
	item sched.Item
	sess *session
	conn *rpc.Conn
	// q is the command queue the task was flushed from; the worker hands
	// the executed task back to it (recycle).
	q   *queueState
	ops []op
	// trace is the client's sampled trace from the Flush frame (zero when
	// untraced).
	trace uint64
	// flight keys the task's flight-recorder skeleton: the trace ID when
	// sampled, a synthetic local key otherwise (assigned at submit).
	flight obs.TraceID

	// The task's record, from which end derives every view of the task.
	// item.Submitted is its enqueue; the worker stamps each later stage
	// boundary once: popped (the start of execution), held (the end of the
	// board hold and the start of notify) and notified (the completion
	// frame written). A zero stamp is a stage the task never reached.
	popped, held, notified time.Time
	// queueWait is popped - item.Submitted; deviceTime is the modelled
	// board time of the operations executed; upload is the manager's
	// share of the upload stage, over uploads writes.
	queueWait, deviceTime, upload time.Duration
	uploads                       int
}

// opsDetails are the "<n> ops" flight details of the usual task sizes,
// built once: a task's milestones name its size twice.
var opsDetails = func() (t [17]string) {
	for n := range t {
		t[n] = strconv.Itoa(n) + " ops"
	}
	return t
}()

func opsDetail(n int) string {
	if n < len(opsDetails) {
		return opsDetails[n]
	}
	return strconv.Itoa(n) + " ops"
}

// releaseFrame returns an inline write's retained request frame to the
// buffer pool — the frame the server handed over, not the data view into
// it. A no-op for every other operation.
func (o *op) releaseFrame() {
	wire.PutBuf(o.frame)
	o.frame, o.data = nil, nil
}

// releaseOps releases the frames of operations that will never reach the
// board (dropped queues, failed submissions, aborted task tails). Executed
// writes release theirs inside runOp instead.
func releaseOps(ops []op) {
	for i := range ops {
		ops[i].releaseFrame()
	}
}

func (s *session) enqueueWrite(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.EnqueueWriteRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed EnqueueWrite: %v", err)
	}
	q, err := s.queue(req.Queue)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	buf, err := s.lookupBuffer(req.Buffer)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	if buf.shared {
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidOperation,
			"buffer %d is shared through the content cache and immutable", req.Buffer))
		return nil, nil
	}
	o := op{
		kind:     opWrite,
		tag:      req.Tag,
		boardBuf: buf.boardID,
		offset:   req.Offset,
		via:      req.Via,
		trace:    req.TraceID,
	}
	switch req.Via {
	case wire.ViaInline:
		// req.Data aliases the request frame. Keep the frame alive past
		// this handler — the worker releases it once the bytes reach the
		// board (runOp) or the operation is dropped (releaseOps).
		o.frame = c.RetainRequestPayload()
		o.data = req.Data
		o.length = int64(len(req.Data))
	case wire.ViaShm:
		if s.segment() == nil {
			s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidOperation, "no shared-memory segment negotiated"))
			return nil, nil
		}
		o.shmOff = req.ShmOff
		o.length = req.ShmLen
	default:
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidValue, "data path %d", req.Via))
		return nil, nil
	}
	s.appendOp(q, &o)
	return nil, nil
}

func (s *session) enqueueRead(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.EnqueueReadRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed EnqueueRead: %v", err)
	}
	q, err := s.queue(req.Queue)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	buf, err := s.lookupBuffer(req.Buffer)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	if req.Via == wire.ViaShm && s.segment() == nil {
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidOperation, "no shared-memory segment negotiated"))
		return nil, nil
	}
	s.appendOp(q, &op{
		kind:     opRead,
		tag:      req.Tag,
		boardBuf: buf.boardID,
		offset:   req.Offset,
		length:   req.Length,
		via:      req.Via,
		shmOff:   req.ShmOff,
		trace:    req.TraceID,
	})
	return nil, nil
}

func (s *session) enqueueKernel(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	req := &s.kernelReq
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed EnqueueKernel: %v", err)
	}
	q, err := s.queue(req.Queue)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	s.mu.Lock()
	k, ok := s.kernels[req.Kernel]
	if !ok {
		s.mu.Unlock()
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidKernel, "kernel %d", req.Kernel))
		return nil, nil
	}
	for i, set := range k.set {
		if !set {
			name := k.name
			s.mu.Unlock()
			s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidKernelArgs,
				"kernel %q: argument %d not set", name, i))
			return nil, nil
		}
	}
	// The launch snapshots the arguments and the NDRange into its slot's
	// own arrays, which the slot keeps from the launch that last used it.
	o := q.push(&op{
		kind:       opKernel,
		tag:        req.Tag,
		kernelName: k.name,
		trace:      req.TraceID,
	})
	o.args = append(o.args, k.args...)
	o.global = append(o.global, req.Global...)
	s.mu.Unlock()
	return nil, nil
}

// enqueueCopy joins a device-to-device buffer copy to the client's current
// task. Ranges are validated here against the session's buffer sizes so a
// bad chain fails at enqueue, not on the board.
func (s *session) enqueueCopy(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.EnqueueCopyRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed EnqueueCopy: %v", err)
	}
	q, err := s.queue(req.Queue)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	src, err := s.lookupBuffer(req.SrcBuffer)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	dst, err := s.lookupBuffer(req.DstBuffer)
	if err != nil {
		s.sendFail(c, req.Tag, err)
		return nil, nil
	}
	if dst.shared {
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidOperation,
			"buffer %d is shared through the content cache and immutable", req.DstBuffer))
		return nil, nil
	}
	if req.Length < 0 ||
		req.SrcOffset < 0 || req.SrcOffset+req.Length > src.size ||
		req.DstOffset < 0 || req.DstOffset+req.Length > dst.size {
		s.sendFail(c, req.Tag, ocl.Errf(ocl.ErrInvalidValue,
			"copy range: src off=%d dst off=%d len=%d (src %d, dst %d bytes)",
			req.SrcOffset, req.DstOffset, req.Length, src.size, dst.size))
		return nil, nil
	}
	s.appendOp(q, &op{
		kind:     opCopy,
		tag:      req.Tag,
		boardBuf: src.boardID,
		offset:   req.SrcOffset,
		copyDst:  dst.boardID,
		dstOff:   req.DstOffset,
		length:   req.Length,
		trace:    req.TraceID,
	})
	return nil, nil
}

// appendOp adds the operation to the queue's current task. Its
// acknowledgement (the FIRST step of the client's event state machine) is
// deferred: all of a task's Accepted notifications leave as one batch frame
// at flush time.
func (s *session) appendOp(q *queueState, o *op) {
	s.mu.Lock()
	q.push(o)
	s.mu.Unlock()
}

// push copies o into the next slot of the current task, with s.mu held,
// and returns the slot. A slot is reused across tasks: it keeps the args
// and global arrays of the launch that last used it, emptied, for
// the caller to append into. Its frame was released when that operation
// ran or was dropped, so a slot never keeps a pooled frame.
func (q *queueState) push(o *op) *op {
	q.cur = slices.Grow(q.cur, 1)[:len(q.cur)+1]
	slot := &q.cur[len(q.cur)-1]
	args, global := slot.args[:0], slot.global[:0]
	*slot = *o
	slot.args, slot.global = args, global
	q.accepted = append(q.accepted, o.tag)
	return slot
}

// flush seals the queue's current task and submits it to the central FIFO
// queue. An empty task is a no-op.
func (s *session) flush(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.FlushRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed Flush: %v", err)
	}
	q, err := s.queue(req.Queue)
	if err != nil {
		return nil, nil // nothing to fail: flush carries no tag
	}
	s.mu.Lock()
	ops := q.cur
	var t *task
	if len(ops) > 0 {
		// The task the worker handed back carries these ops, and its old
		// op array collects the next task's. Without one, the next task is
		// likely this one's size.
		t, q.spare = q.spare, nil
		if t != nil {
			q.cur = t.ops[:0]
		} else {
			t, q.cur = new(task), make([]op, 0, len(ops))
		}
	}
	// Only this goroutine, the connection's, appends to q.accepted, so the
	// tags can be encoded below while the backing array is kept.
	accepted := q.accepted
	q.accepted = q.accepted[:0]
	s.mu.Unlock()
	if len(accepted) > 0 {
		// One frame acknowledges every operation of the task.
		e := wire.GetEncoder(8 + 34*len(accepted))
		e.U32(uint32(len(accepted)))
		for _, tag := range accepted {
			(&wire.OpNotification{Tag: tag, State: wire.OpAccepted}).EncodeHead(e)
		}
		c.Notify(e.Bytes()) // best effort
		e.Release()
	}
	if len(ops) == 0 {
		return nil, nil
	}
	*t = task{sess: s, conn: c, q: q, ops: ops, trace: req.TraceID}
	m.submit(t)
	return nil, nil
}

// notifyBatcher accumulates the notifications a task emits and sends them
// as one notification frame at the end of the task. Notification heads are
// encoded into a single pooled buffer as they arrive; Data payloads stay
// where they are and ride out as their own vectored-write segments: a read
// behind the task's last write, copy or kernel goes to the socket straight
// from board memory, any other read from the pooled copy runOp made.
//
// The worker owns one batcher and points it at each task in turn, so parts
// and segs are scratch that stops allocating once it has grown to the
// largest task seen.
type notifyBatcher struct {
	c *rpc.Conn

	e     *wire.Encoder
	parts []notifyPart
	segs  [][]byte
}

type notifyPart struct {
	metaEnd int    // end offset of this notification's head in e's buffer
	data    []byte // payload segment following the head, if any
	own     bool   // release data to the pool once the frame is written
}

// add appends one notification. If own is set, the batcher assumes
// ownership of n.Data and releases it after the wire write.
func (nb *notifyBatcher) add(n *wire.OpNotification, own bool) {
	if nb.e == nil {
		nb.e = wire.GetEncoder(256)
		nb.e.U32(0) // notification count, patched in flush
	}
	n.EncodeHead(nb.e)
	nb.parts = append(nb.parts, notifyPart{metaEnd: nb.e.Len(), data: n.Data, own: own})
}

// flush seals and writes the batch frame, then releases owned payloads.
func (nb *notifyBatcher) flush() {
	if nb.e == nil {
		return
	}
	nb.e.SetU32(0, uint32(len(nb.parts)))
	buf := nb.e.Bytes()
	segs := nb.segs[:0]
	prev := 0
	for _, p := range nb.parts {
		segs = append(segs, buf[prev:p.metaEnd])
		prev = p.metaEnd
		if len(p.data) > 0 {
			segs = append(segs, p.data)
		}
	}
	nb.c.Notify(segs...) // best effort
	for _, p := range nb.parts {
		if p.own {
			wire.PutBuf(p.data)
		}
	}
	// Keep the scratch, not what it pointed at: pooled read copies went back
	// to the pool above, and a board view would pin a freed buffer's memory.
	clear(segs)
	clear(nb.parts)
	nb.segs, nb.parts = segs[:0], nb.parts[:0]
	nb.e.Release()
	nb.e = nil
}

// runTask executes one task's operations back to back on the FPGA, holds
// the board for the task's modelled time and ends the task (end), which
// sends all of its progress notifications as one batch frame. A failing
// operation aborts the rest of the task: the queue is in-order, so later
// operations would observe inconsistent state.
func (m *Manager) runTask(t *task, nb *notifyBatcher) {
	cost := m.board.Cost()
	scale := m.board.Config().TimeScale
	nb.c = t.conn
	var cause string
	var abortErr error
	// staged is the modelled host staging time of the task's transfers.
	var staged time.Duration
	// A read behind the task's last write, copy or kernel may send its
	// result straight from board memory (see runOp).
	lastWriter := -1
	for i := range t.ops {
		if t.ops[i].kind != opRead {
			lastWriter = i
		}
	}
	for i := range t.ops {
		o := &t.ops[i]
		if abortErr != nil {
			o.releaseFrame()
			nb.add(&wire.OpNotification{
				Tag:    o.tag,
				State:  wire.OpFailed,
				Status: int32(ocl.ErrInvalidOperation),
				Error:  "aborted: earlier operation in task failed: " + abortErr.Error(),
			}, false)
			continue
		}
		nb.add(&wire.OpNotification{Tag: o.tag, State: wire.OpRunning}, false)
		// An op reads the clock only for its own op milestone when
		// traced, or as a write at TimeScale 0, where its wall time is its
		// upload share.
		timed := o.trace != 0 || o.kind == opWrite && scale == 0
		var opStart, opEnd time.Time
		if timed {
			opStart = time.Now()
		}
		n := wire.OpNotification{Tag: o.tag, State: wire.OpComplete}
		staging, ownData, err := m.runOp(t, o, cost, &n, i > lastWriter)
		staged += staging
		if timed {
			opEnd = time.Now()
		}
		if o.trace != 0 {
			// The op's board run; its modelled time is held once for the
			// whole task, below, and shows in the execute milestone.
			o.ran, o.took = opStart, opEnd.Sub(opStart)
		}
		if o.kind == opWrite {
			// Device ingest time is the manager's share of the "upload"
			// wait-breakdown stage (the client records its wire share).
			// With modelled time slept, the write's share of the task's
			// hold is its scaled staging and DMA time, not the wall time
			// of the copy.
			up := opEnd.Sub(opStart)
			if scale > 0 {
				up = time.Duration(float64(staging+time.Duration(n.DeviceNanos)) * scale)
			}
			t.upload += up
			t.uploads++
		}
		m.mOps.Inc()
		t.deviceTime += time.Duration(n.DeviceNanos)
		if err != nil {
			abortErr = err
			cause = o.kind.String() + ": " + err.Error()
			nb.add(&wire.OpNotification{
				Tag:    o.tag,
				State:  wire.OpFailed,
				Status: int32(ocl.StatusOf(err)),
				Error:  err.Error(),
			}, false)
			continue
		}
		nb.add(&n, ownData)
	}
	if scale > 0 {
		// The worker holds the board for the task's modelled time, once:
		// the control-plane overhead of the flushed task (calibrated; the
		// real wire cost of this reproduction is far below hardware-era
		// gRPC), its staging copies and its device time, scaled and
		// counted from the pop. The real work above runs inside that
		// budget. One deadline per task, slept by fpga.SleepUntil,
		// overshoots once by a nanosleep wake-up, not once per stage by a
		// runtime timer tick; the client sees nothing before the batch
		// leaves either way.
		modelled := cost.TaskControlOverhead(len(t.ops)) + staged + t.deviceTime
		fpga.SleepUntil(t.popped.Add(time.Duration(float64(modelled) * scale)))
	}
	t.held = time.Now()
	m.end(t, nb, cause)
}

// end is the one place a task finishes, whichever way it ended:
//   - it ran on the board (runTask), and nb holds its completion batch;
//   - its session's lease had expired when the worker popped it (worker);
//   - the lease sweeper killed it in the central queue (expireSession);
//   - the central queue refused it at Push (submit).
//
// cause names the failure, empty when the task succeeded. Every view of
// the task derives from its record here: the tenant counters and
// histograms, the flight milestones and CompleteWith (with a sampled
// task's op milestones and bf_stage_seconds observations), and the log.
// It splits in one place, the completion frame: what a client back from
// Finish relies on is written before it, so the client finds its task
// counted.
func (m *Manager) end(t *task, nb *notifyBatcher, cause string) {
	tm := t.sess.tm
	enqueued, popped, ran := !t.item.Submitted.IsZero(), !t.popped.IsZero(), !t.held.IsZero()
	if popped {
		t.queueWait = t.popped.Sub(t.item.Submitted)
		tm.waitTotal.Add(t.queueWait.Seconds())
		tm.waitHist.Observe(t.queueWait.Seconds())
	}
	tm.tasks.Inc()
	if cause != "" {
		tm.failures.Inc()
		t.sess.log.Warn("task failed", "cause", cause, "ops", len(t.ops), "trace", obs.TraceID(t.trace))
	}
	if ran {
		m.mTasks.Inc()
		m.mTaskHist.Observe(t.deviceTime.Seconds())
		tm.deviceSec.Add(t.deviceTime.Seconds())
		tm.deviceNS.Add(int64(t.deviceTime))
		nb.flush()
	} else {
		err := ocl.Errf(ocl.ErrDeviceNotAvailable, "%s", cause)
		for i := range t.ops {
			t.sess.sendFail(t.conn, t.ops[i].tag, err) // best effort: the client may be gone
		}
		releaseOps(t.ops)
	}
	t.notified = time.Now()

	// Task residency, submit to completion, is the latency the tenant's
	// SLO is declared against; a refused task never entered the queue. A
	// sampled task's trace rides as the bucket exemplar.
	var residency time.Duration
	if enqueued {
		residency = t.notified.Sub(t.item.Submitted)
	}
	var exemplar string
	if t.trace != 0 {
		exemplar = obs.TraceID(t.trace).String()
	}
	tm.latHist.ObserveExemplar(residency.Seconds(), exemplar)

	// The milestones the task reached, each ending at its stamp and
	// lasting its Dur. The writes' upload share is placed from the start
	// of the hold: their own times are not kept.
	evs := make([]flightrec.Event, 0, 6)
	if enqueued {
		evs = append(evs, flightrec.Event{Kind: flightrec.KindEnqueued, Depth: t.item.Depth, Pos: t.item.Pos,
			Detail: opsDetail(len(t.ops)), Time: t.item.Submitted})
	}
	if popped {
		evs = append(evs, flightrec.Event{Kind: flightrec.KindScheduled, Dur: t.queueWait,
			Detail: string(m.disc), Time: t.popped})
	}
	if t.uploads > 0 {
		evs = append(evs, flightrec.Event{Kind: flightrec.KindUpload, Dur: t.upload, Detail: "device-write",
			Count: t.uploads, Time: t.popped.Add(t.upload)})
	}
	if ran {
		evs = append(evs,
			flightrec.Event{Kind: flightrec.KindExecute, Dur: t.held.Sub(t.popped),
				Detail: opsDetail(len(t.ops)), Ops: len(t.ops), Device: t.deviceTime, Time: t.held},
			flightrec.Event{Kind: flightrec.KindNotify, Dur: t.notified.Sub(t.held), Time: t.notified})
	}
	if cause != "" {
		evs = append(evs, flightrec.Event{Kind: flightrec.KindFailure, Detail: cause, Time: t.notified})
	}
	if t.trace != 0 {
		evs = m.sampled(t, evs, exemplar)
	}
	m.flight.CompleteWith(t.flight, t.sess.clientName, evs, t.notified, residency, cause != "", cause)
}

// stageHists are the manager's bf_stage_seconds series, made by the first
// sampled task so that an untraced manager exports none.
type stageHists struct {
	once                           sync.Once
	queueWait, execute, op, notify metrics.Histogram
}

// sampled appends a sampled task's op milestones to evs and observes its
// stages into bf_stage_seconds, each with the task's trace as exemplar:
// queue-wait, execute and notify from the stamps of the scheduled,
// execute and notify milestones, and each op's board run.
func (m *Manager) sampled(t *task, evs []flightrec.Event, exemplar string) []flightrec.Event {
	h := &m.stages
	h.once.Do(func() {
		stage := func(name string) metrics.Histogram {
			return m.reg.Histogram("bf_stage_seconds", "Latency decomposition of traced requests by pipeline stage.",
				metrics.Labels{"component": "manager", "stage": name, "device": m.cfg.DeviceID, "node": m.cfg.Node}, nil)
		}
		h.queueWait, h.execute, h.op, h.notify = stage("queue-wait"), stage("execute"), stage("op"), stage("notify")
	})
	for i := range t.ops {
		o := &t.ops[i]
		if o.ran.IsZero() {
			continue
		}
		h.op.ObserveExemplar(o.took.Seconds(), exemplar)
		evs = append(evs, flightrec.Event{Kind: flightrec.KindOp, Detail: o.kind.String(), Dur: o.took, Time: o.ran.Add(o.took)})
	}
	if !t.popped.IsZero() {
		h.queueWait.ObserveExemplar(t.queueWait.Seconds(), exemplar)
	}
	if !t.held.IsZero() {
		h.execute.ObserveExemplar(t.held.Sub(t.popped).Seconds(), exemplar)
		h.notify.ObserveExemplar(t.notified.Sub(t.held).Seconds(), exemplar)
	}
	return evs
}

// runOp executes one operation and fills in its completion notification
// n, whose DeviceNanos is the operation's modelled board time. staging is
// the modelled host-side copy time of a transfer's data path. ownData
// reports whether n.Data is a pooled buffer the caller must release after
// the notification is written.
//
// With view set, an inline read's n.Data is a view of board memory
// (fpga.Board.ReadView) instead of a pooled copy, and ownData is false.
// The caller sets it only when no later op of the task writes the board
// (every later op is a read). That keeps the view's bytes those of the
// read until the completion batch has left: the worker is the only writer
// of existing board buffers (Write, Copy and Run all run here), it writes
// the batch synchronously before it takes the next task, and Conn.Notify
// keeps no segment past its return. Alloc makes fresh memory, and Free
// and reconfiguration never touch a buffer's contents, so the connection
// goroutines cannot change the bytes either. A read followed by a write,
// copy or kernel in its own task still copies: the batch leaves after
// those ops have run.
func (m *Manager) runOp(t *task, o *op, cost *model.CostModel, n *wire.OpNotification, view bool) (staging time.Duration, ownData bool, err error) {
	switch o.kind {
	case opWrite:
		var src []byte
		switch o.via {
		case wire.ViaInline:
			src = o.data
			staging = cost.GRPCDataOverhead(o.length)
		case wire.ViaShm:
			seg := t.sess.segment()
			if seg == nil {
				return 0, false, ocl.Errf(ocl.ErrInvalidOperation, "shared-memory segment vanished")
			}
			rng, rerr := seg.Range(o.shmOff, o.length)
			if rerr != nil {
				return 0, false, ocl.Errf(ocl.ErrInvalidValue, "shm write range: %v", rerr)
			}
			src = rng
			staging = cost.ShmDataOverhead(o.length)
		}
		d, werr := m.board.Write(o.boardBuf, o.offset, src)
		// The retained request frame is consumed: the bytes are on the
		// board (or the write failed and they never will be).
		o.releaseFrame()
		if werr != nil {
			return staging, false, werr
		}
		n.DeviceNanos = int64(d)
		m.mBytesIn.Add(float64(o.length))
	case opRead:
		switch o.via {
		case wire.ViaInline:
			var d time.Duration
			var rerr error
			if view {
				n.Data, d, rerr = m.board.ReadView(o.boardBuf, o.offset, o.length)
			} else {
				n.Data, ownData = wire.GetBuf(int(o.length)), true
				d, rerr = m.board.Read(o.boardBuf, o.offset, n.Data)
			}
			if rerr != nil {
				if ownData {
					wire.PutBuf(n.Data)
				}
				n.Data = nil
				return 0, false, rerr
			}
			staging = cost.GRPCDataOverhead(o.length)
			n.DeviceNanos = int64(d)
		case wire.ViaShm:
			seg := t.sess.segment()
			if seg == nil {
				return 0, false, ocl.Errf(ocl.ErrInvalidOperation, "shared-memory segment vanished")
			}
			dst, rerr := seg.Range(o.shmOff, o.length)
			if rerr != nil {
				return 0, false, ocl.Errf(ocl.ErrInvalidValue, "shm read range: %v", rerr)
			}
			d, rerr := m.board.Read(o.boardBuf, o.offset, dst)
			if rerr != nil {
				return 0, false, rerr
			}
			staging = cost.ShmDataOverhead(o.length)
			n.ShmLen = o.length
			n.DeviceNanos = int64(d)
		default:
			return 0, false, ocl.Errf(ocl.ErrInvalidValue, "data path %d", o.via)
		}
		m.mBytesOut.Add(float64(o.length))
	case opKernel:
		d, kerr := m.board.Run(o.kernelName, o.args, o.global)
		if kerr != nil {
			return 0, false, kerr
		}
		n.DeviceNanos = int64(d)
		m.mKernels.Inc()
	case opCopy:
		// Device-to-device: the bytes stay on the board, so neither the
		// bytes-in nor bytes-out series moves — that absence is the
		// zero-copy property the chaining benchmark pins.
		d, cerr := m.board.Copy(o.boardBuf, o.copyDst, o.offset, o.dstOff, o.length)
		if cerr != nil {
			return 0, false, cerr
		}
		n.DeviceNanos = int64(d)
		m.mCopies.Inc()
		m.mCopyBytes.Add(float64(o.length))
	default:
		return 0, false, ocl.Errf(ocl.ErrInvalidOperation, "unknown op kind %d", o.kind)
	}
	return staging, ownData, nil
}
