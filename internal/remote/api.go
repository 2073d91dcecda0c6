package remote

import (
	"sync"
	"time"

	"blastfunction/internal/datacache"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// context implements ocl.Context over one Device Manager session.
type context struct {
	mc      *managerConn
	id      uint64
	devices []ocl.Device

	mu     sync.Mutex
	queues []*commandQueue
}

func (mc *managerConn) createContext(devices []ocl.Device) (ocl.Context, error) {
	resp, err := mc.rpc.Call(wire.MethodCreateContext)
	if err != nil {
		return nil, err
	}
	var id wire.IDResponse
	id.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	return &context{mc: mc, id: id.ID, devices: devices}, nil
}

// Devices implements ocl.Context.
func (c *context) Devices() []ocl.Device { return c.devices }

// callID performs a unary call built from an IDRequest and returns the
// decoded IDResponse (zero for methods without a response body). The
// response buffer is released here, so callers never touch pooled memory.
func callID(mc *managerConn, m wire.Method, id uint64) (wire.IDResponse, error) {
	e := wire.GetEncoder(8)
	(&wire.IDRequest{ID: id}).Encode(e)
	resp, err := mc.rpc.Call(m, e.Bytes())
	e.Release()
	if err != nil {
		return wire.IDResponse{}, err
	}
	var out wire.IDResponse
	if len(resp) > 0 {
		out.Decode(wire.NewDecoder(resp))
	}
	wire.PutBuf(resp)
	return out, nil
}

// CreateCommandQueue implements ocl.Context.
func (c *context) CreateCommandQueue(d ocl.Device, props ocl.QueueProps) (ocl.CommandQueue, error) {
	if rd, ok := d.(*device); !ok || rd.mc != c.mc {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "device does not belong to this context")
	}
	id, err := callID(c.mc, wire.MethodCreateQueue, c.id)
	if err != nil {
		return nil, err
	}
	q := &commandQueue{ctx: c, id: id.ID}
	c.mu.Lock()
	c.queues = append(c.queues, q)
	c.mu.Unlock()
	return q, nil
}

// CreateBuffer implements ocl.Context. Buffer creation (with optional
// initialization data) is a synchronous context/information method.
//
// Full-size read-only payloads go through the manager's content-addressed
// buffer cache unless Config.DisableContentCache is set: a hash-only probe
// first (a resident hit makes the create a metadata-only RPC — the paper's
// repeated CNN weights upload once per board), then the payload with its
// hash on a miss so the next create hits.
func (c *context) CreateBuffer(flags ocl.MemFlags, size int, hostData []byte) (ocl.Buffer, error) {
	if !flags.Valid() {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "buffer flags %#x", uint32(flags))
	}
	if size <= 0 || (hostData != nil && len(hostData) > size) {
		return nil, ocl.Errf(ocl.ErrInvalidBufferSize, "size %d, init %d", size, len(hostData))
	}
	mc := c.mc
	var hash uint64
	if !mc.cfg.DisableContentCache && flags == ocl.MemReadOnly && len(hostData) == size {
		// Cacheable: contents fully determined by (hash, size) and nobody
		// may write the buffer afterwards.
		hash = datacache.ContentHash64(hostData)
		e := wire.GetEncoder(40)
		(&wire.CreateBufferRequest{
			Context: c.id, Flags: uint32(flags), Size: int64(size), ContentHash: hash,
		}).Encode(e)
		resp, err := mc.rpc.Call(wire.MethodCreateBuffer, e.Bytes())
		e.Release()
		if err != nil {
			return nil, err
		}
		var id wire.IDResponse
		id.Decode(wire.NewDecoder(resp))
		wire.PutBuf(resp)
		if id.ID != 0 { // cache hit: the payload never moved
			return &buffer{ctx: c, id: id.ID, size: size, flags: flags, shared: true}, nil
		}
	}
	req := wire.CreateBufferRequest{
		Context: c.id, Flags: uint32(flags), Size: int64(size),
		InitData: hostData, ContentHash: hash,
	}
	// The init payload rides as its own segment between the encoded head
	// (which ends with the payload length) and the content-hash tail, so
	// the transport vectors the user's bytes straight into the socket.
	e := wire.GetEncoder(48)
	req.EncodeHead(e)
	head := e.Len()
	req.EncodeTail(e)
	buf := e.Bytes()
	resp, err := mc.rpc.Call(wire.MethodCreateBuffer, buf[:head], hostData, buf[head:])
	e.Release()
	if err != nil {
		return nil, err
	}
	var id wire.IDResponse
	id.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	return &buffer{ctx: c, id: id.ID, size: size, flags: flags, shared: hash != 0}, nil
}

// CreateProgramWithBinary implements ocl.Context.
func (c *context) CreateProgramWithBinary(d ocl.Device, binary []byte) (ocl.Program, error) {
	if rd, ok := d.(*device); !ok || rd.mc != c.mc {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "device does not belong to this context")
	}
	e := wire.GetEncoder(16)
	e.U64(c.id)
	e.U32(uint32(len(binary)))
	resp, err := c.mc.rpc.Call(wire.MethodCreateProgram, e.Bytes(), binary)
	e.Release()
	if err != nil {
		return nil, err
	}
	var pr wire.CreateProgramResponse
	pr.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	return &program{ctx: c, id: pr.ID, kernels: pr.Kernels}, nil
}

// Release implements ocl.Context.
func (c *context) Release() error {
	c.mu.Lock()
	queues := append([]*commandQueue(nil), c.queues...)
	c.queues = nil
	c.mu.Unlock()
	for _, q := range queues {
		q.Release()
	}
	_, err := callID(c.mc, wire.MethodReleaseContext, c.id)
	return err
}

// flushAll seals the current task on every queue of the context; waits on
// cross-queue event dependencies rely on it.
func (c *context) flushAll() {
	c.mu.Lock()
	queues := append([]*commandQueue(nil), c.queues...)
	c.mu.Unlock()
	for _, q := range queues {
		q.Flush()
	}
}

// buffer implements ocl.Buffer.
type buffer struct {
	ctx   *context
	id    uint64
	size  int
	flags ocl.MemFlags
	// shared marks a handle backed by the manager's content-addressed
	// cache: the device bytes may be shared with other sessions, so
	// writes and copy destinations are rejected client-side.
	shared bool
}

// Size implements ocl.Buffer.
func (b *buffer) Size() int { return b.size }

// Flags implements ocl.Buffer.
func (b *buffer) Flags() ocl.MemFlags { return b.flags }

// Release implements ocl.Buffer.
func (b *buffer) Release() error {
	_, err := callID(b.ctx.mc, wire.MethodReleaseBuffer, b.id)
	return err
}

// program implements ocl.Program.
type program struct {
	ctx     *context
	id      uint64
	kernels []string
}

// Build implements ocl.Program: the board reconfiguration request, the one
// blocking context/information method. Its deadline is derived from the
// manager's advertised reprogramming cost — the generic call timeout can
// fire mid-flash on slow boards, leaving the library believing a build
// failed that the board completed.
func (p *program) Build(options string) error {
	mc := p.ctx.mc
	e := wire.GetEncoder(8)
	(&wire.IDRequest{ID: p.id}).Encode(e)
	resp, err := mc.rpc.CallWithTimeout(wire.MethodBuildProgram, mc.buildTimeout(), e.Bytes())
	e.Release()
	if err != nil {
		return err
	}
	wire.PutBuf(resp)
	return nil
}

// KernelNames implements ocl.Program.
func (p *program) KernelNames() []string { return append([]string(nil), p.kernels...) }

// CreateKernel implements ocl.Program.
func (p *program) CreateKernel(name string) (ocl.Kernel, error) {
	e := wire.GetEncoder(32)
	(&wire.CreateKernelRequest{Program: p.id, Name: name}).Encode(e)
	resp, err := p.ctx.mc.rpc.Call(wire.MethodCreateKernel, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	var id wire.IDResponse
	id.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	return &kernel{ctx: p.ctx, id: id.ID, name: name}, nil
}

// Release implements ocl.Program.
func (p *program) Release() error { return nil }

// kernel implements ocl.Kernel.
type kernel struct {
	ctx  *context
	id   uint64
	name string
}

// Name implements ocl.Kernel.
func (k *kernel) Name() string { return k.name }

// SetArg implements ocl.Kernel.
func (k *kernel) SetArg(i int, value any) error {
	if i < 0 {
		return ocl.Errf(ocl.ErrInvalidArgIndex, "index %d", i)
	}
	var arg ocl.Arg
	if b, ok := value.(ocl.Buffer); ok {
		rb, ok := b.(*buffer)
		if !ok || rb.ctx != k.ctx {
			return ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
		}
		arg = ocl.BufferArg(rb.id)
	} else {
		var err error
		arg, err = ocl.PackArg(value)
		if err != nil {
			return err
		}
	}
	e := wire.GetEncoder(32)
	(&wire.SetKernelArgRequest{Kernel: k.id, Index: uint32(i), Arg: arg}).Encode(e)
	resp, err := k.ctx.mc.rpc.Call(wire.MethodSetKernelArg, e.Bytes())
	e.Release()
	wire.PutBuf(resp)
	return err
}

// Release implements ocl.Kernel.
func (k *kernel) Release() error {
	_, err := callID(k.ctx.mc, wire.MethodReleaseKernel, k.id)
	return err
}

// commandQueue implements ocl.CommandQueue. Operations enqueued between
// flushes form the client's current task on the manager.
type commandQueue struct {
	ctx *context
	id  uint64

	mu        sync.Mutex
	events    []*remoteEvent // not yet known-complete
	unflushed []*remoteEvent // members of the current task
	released  bool
	finishing int // Finish calls walking events

	// Tracing state of the current (unflushed) task. Sampling is decided
	// once per task, at its first operation; every operation then shares
	// the trace. Flush resets it.
	traceLive bool        // sampling decided for the current task
	trace     obs.TraceID // zero: task unsampled
	taskStart time.Time
	// flightKey keys the current task's flight-recorder skeleton: the
	// sampled trace when one exists, a synthetic local key otherwise, zero
	// without a recorder.
	flightKey obs.TraceID
	// flightEvs accumulates the current task's client-side flight
	// milestones under q.mu; Flush hands them to the task's terminal
	// event, whose completion notification applies them in one batched
	// recorder call (one recorder-mutex acquisition per task — that mutex
	// bounces between the application and connection goroutines).
	flightEvs []flightrec.Event
}

// beginOp joins an operation to the current task's trace and flight,
// deciding trace sampling at the task's first operation. It stamps the
// event's trace (zero when tracing is off or the task is unsampled) and
// flight identity.
func (q *commandQueue) beginOp(ev *remoteEvent) {
	mc := q.ctx.mc
	q.mu.Lock()
	if !q.traceLive {
		q.traceLive = true
		q.taskStart = time.Now()
		q.trace = mc.cfg.Tracer.Sample()
		// First op of the task: reserve the flight key (sampled trace when
		// one exists, synthetic otherwise). Alloc is one atomic — the
		// flight itself is admitted by the terminal notification's
		// CompleteWith, together with the batched milestones.
		q.flightKey = mc.flight.Alloc(q.trace)
	}
	ev.trace, ev.flight, ev.taskStart = q.trace, q.flightKey, q.taskStart
	q.mu.Unlock()
}

// reuseFlightEvs takes back a finished task's milestone array, which the
// recorder copied out, for the next task to append into. A task that
// already began one keeps its own.
func (q *commandQueue) reuseFlightEvs(evs []flightrec.Event) {
	q.mu.Lock()
	if q.flightEvs == nil {
		q.flightEvs = evs[:0]
	}
	q.mu.Unlock()
}

// send is the tail every enqueue shares. It publishes ev and hands the
// encoded request to the connection as delayed segments: e's bytes up to
// head, the caller's payload, then e's bytes after head. A write times
// its send for its wire-send milestone. On success the op joins the
// current task, and a blocking one flushes the task and waits for it.
func (q *commandQueue) send(ev *remoteEvent, method wire.Method, e *wire.Encoder, head int, data []byte, blocking bool) (ocl.Event, error) {
	mc := q.ctx.mc
	mc.enroll(ev)
	// The client side of the upload stage (the manager's device-write is
	// the other half): wire-send, or the staging copy of a frame that
	// waits for the flush. Joins the task's milestone batch.
	upload := method == wire.MethodEnqueueWrite && ev.flight != 0
	var start, end time.Time
	if upload {
		start = time.Now()
	}
	buf := e.Bytes()
	err := mc.rpc.SendDelayed(method, buf[:head], data, buf[head:])
	e.Release()
	if err != nil {
		mc.forget(ev.tag)
		ev.releaseStaging(mc)
		return nil, err
	}
	if upload {
		end = time.Now()
	}
	ev.queue = q
	q.mu.Lock()
	if upload {
		q.flightEvs = append(q.flightEvs, flightrec.Event{
			Kind: flightrec.KindUpload, Dur: end.Sub(start), Detail: "wire-send", Time: end})
	}
	q.events = append(q.events, ev)
	q.unflushed = append(q.unflushed, ev)
	q.mu.Unlock()
	if !blocking {
		return ev, nil
	}
	q.Flush()
	return ev, ev.Wait()
}

// waitDependencies implements event wait lists. In-order queues already
// serialize same-queue dependencies; cross-queue dependencies are honored
// by flushing the context and waiting, which keeps the in-order guarantee
// of this queue intact at the cost of host-side synchronization.
func (q *commandQueue) waitDependencies(waitList []ocl.Event) error {
	if len(waitList) == 0 {
		return nil
	}
	q.ctx.flushAll()
	return ocl.WaitForEvents(waitList...)
}

// EnqueueWriteBuffer implements ocl.CommandQueue.
func (q *commandQueue) EnqueueWriteBuffer(b ocl.Buffer, blocking bool, offset int, data []byte, waitList []ocl.Event) (ocl.Event, error) {
	rb, ok := b.(*buffer)
	if !ok || rb.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
	}
	if offset < 0 || offset+len(data) > rb.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "write range [%d,%d) on buffer of %d", offset, offset+len(data), rb.size)
	}
	if rb.shared {
		return nil, ocl.Errf(ocl.ErrInvalidOperation,
			"buffer is shared through the manager's content cache and immutable")
	}
	if err := q.waitDependencies(waitList); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return ocl.CompletedEvent(ocl.CommandWriteBuffer), nil
	}
	mc := q.ctx.mc
	tag := mc.newTag()
	ev := mc.register(ocl.CommandWriteBuffer, tag)
	req := wire.EnqueueWriteRequest{
		Tag:    tag,
		Queue:  q.id,
		Buffer: rb.id,
		Offset: int64(offset),
		Via:    wire.ViaInline,
		Data:   data,
	}
	// Prefer the shared-memory path: one staging copy into the segment.
	if mc.arena != nil {
		if off, err := mc.arena.Alloc(int64(len(data))); err == nil {
			dst, rerr := mc.seg.Range(off, int64(len(data)))
			if rerr == nil {
				copy(dst, data)
				req.Via = wire.ViaShm
				req.ShmOff = off
				req.ShmLen = int64(len(data))
				req.Data = nil
				ev.shmOff, ev.shmLen, ev.freeArena = off, int64(len(data)), true
			} else {
				mc.arena.Free(off, int64(len(data)))
			}
		}
	}
	q.beginOp(ev)
	req.TraceID = uint64(ev.trace)
	// EncodeHead + a separate data segment: for the inline path the user's
	// bytes go from their slice straight into the socket (writev), never
	// through an intermediate concatenation. The trace tail lands in the
	// same pooled buffer, after the head, and rides as a third segment.
	e := wire.GetEncoder(64)
	req.EncodeHead(e)
	head := e.Len()
	req.EncodeTail(e)
	return q.send(ev, wire.MethodEnqueueWrite, e, head, req.Data, blocking)
}

// EnqueueReadBuffer implements ocl.CommandQueue.
func (q *commandQueue) EnqueueReadBuffer(b ocl.Buffer, blocking bool, offset int, dst []byte, waitList []ocl.Event) (ocl.Event, error) {
	rb, ok := b.(*buffer)
	if !ok || rb.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
	}
	if offset < 0 || offset+len(dst) > rb.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "read range [%d,%d) on buffer of %d", offset, offset+len(dst), rb.size)
	}
	if err := q.waitDependencies(waitList); err != nil {
		return nil, err
	}
	if len(dst) == 0 {
		return ocl.CompletedEvent(ocl.CommandReadBuffer), nil
	}
	mc := q.ctx.mc
	tag := mc.newTag()
	ev := mc.register(ocl.CommandReadBuffer, tag)
	ev.dst = dst
	req := wire.EnqueueReadRequest{
		Tag:    tag,
		Queue:  q.id,
		Buffer: rb.id,
		Offset: int64(offset),
		Length: int64(len(dst)),
		Via:    wire.ViaInline,
	}
	if mc.arena != nil {
		if off, err := mc.arena.Alloc(int64(len(dst))); err == nil {
			req.Via = wire.ViaShm
			req.ShmOff = off
			ev.shmOff, ev.shmLen, ev.freeArena = off, int64(len(dst)), true
		}
	}
	q.beginOp(ev)
	req.TraceID = uint64(ev.trace)
	e := wire.GetEncoder(64)
	req.Encode(e)
	return q.send(ev, wire.MethodEnqueueRead, e, e.Len(), nil, blocking)
}

// EnqueueCopyBuffer implements ocl.CommandQueue: a device-to-device move
// that joins the current task without routing the bytes through the
// client.
func (q *commandQueue) EnqueueCopyBuffer(src, dst ocl.Buffer, srcOffset, dstOffset, n int, waitList []ocl.Event) (ocl.Event, error) {
	rs, ok := src.(*buffer)
	if !ok || rs.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "src buffer from a different context")
	}
	rd, ok := dst.(*buffer)
	if !ok || rd.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "dst buffer from a different context")
	}
	if n < 0 || srcOffset < 0 || srcOffset+n > rs.size || dstOffset < 0 || dstOffset+n > rd.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue,
			"copy range: src [%d,%d) of %d, dst [%d,%d) of %d",
			srcOffset, srcOffset+n, rs.size, dstOffset, dstOffset+n, rd.size)
	}
	if rd.shared {
		return nil, ocl.Errf(ocl.ErrInvalidOperation,
			"buffer is shared through the manager's content cache and immutable")
	}
	if err := q.waitDependencies(waitList); err != nil {
		return nil, err
	}
	if n == 0 {
		return ocl.CompletedEvent(ocl.CommandCopyBuffer), nil
	}
	mc := q.ctx.mc
	tag := mc.newTag()
	ev := mc.register(ocl.CommandCopyBuffer, tag)
	req := wire.EnqueueCopyRequest{
		Tag:       tag,
		Queue:     q.id,
		SrcBuffer: rs.id,
		DstBuffer: rd.id,
		SrcOffset: int64(srcOffset),
		DstOffset: int64(dstOffset),
		Length:    int64(n),
	}
	q.beginOp(ev)
	req.TraceID = uint64(ev.trace)
	e := wire.GetEncoder(64)
	req.Encode(e)
	return q.send(ev, wire.MethodEnqueueCopy, e, e.Len(), nil, false)
}

// EnqueueNDRangeKernel implements ocl.CommandQueue.
func (q *commandQueue) EnqueueNDRangeKernel(k ocl.Kernel, global, local []int, waitList []ocl.Event) (ocl.Event, error) {
	rk, ok := k.(*kernel)
	if !ok || rk.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidKernel, "kernel from a different context")
	}
	if err := q.waitDependencies(waitList); err != nil {
		return nil, err
	}
	mc := q.ctx.mc
	tag := mc.newTag()
	ev := mc.register(ocl.CommandNDRangeKernel, tag)
	req := wire.EnqueueKernelRequest{
		Tag:    tag,
		Queue:  q.id,
		Kernel: rk.id,
		Global: global,
		Local:  local,
	}
	q.beginOp(ev)
	req.TraceID = uint64(ev.trace)
	e := wire.GetEncoder(64)
	req.Encode(e)
	return q.send(ev, wire.MethodEnqueueKernel, e, e.Len(), nil, false)
}

// EnqueueTask implements ocl.CommandQueue: a single work-item launch, the
// usual form for Intel FPGA pipeline kernels.
func (q *commandQueue) EnqueueTask(k ocl.Kernel, waitList []ocl.Event) (ocl.Event, error) {
	return q.EnqueueNDRangeKernel(k, []int{1}, nil, waitList)
}

// EnqueueMarker implements ocl.CommandQueue client-side: the marker
// completes when every operation currently in flight on the queue has
// terminated.
func (q *commandQueue) EnqueueMarker() (ocl.Event, error) {
	q.mu.Lock()
	snapshot := append([]*remoteEvent(nil), q.events...)
	q.mu.Unlock()
	if len(snapshot) == 0 {
		return ocl.CompletedEvent(ocl.CommandMarker), nil
	}
	marker := ocl.NewEvent(ocl.CommandMarker)
	go func() {
		for _, ev := range snapshot {
			ev.Wait()
		}
		marker.Complete()
	}()
	return marker, nil
}

// EnqueueBarrier implements ocl.CommandQueue. Like blocking calls and
// clFinish/clFlush, a barrier seals the current task (paper Section
// III-B); in-order task execution then provides the barrier semantics.
func (q *commandQueue) EnqueueBarrier() error { return q.Flush() }

// ensureFlushed seals the current task if ev belongs to it, so a Wait on
// the event can terminate.
func (q *commandQueue) ensureFlushed(ev *remoteEvent) {
	q.mu.Lock()
	member := false
	for _, e := range q.unflushed {
		if e == ev {
			member = true
			break
		}
	}
	q.mu.Unlock()
	if member {
		q.Flush()
	}
}

// Flush implements ocl.CommandQueue: it seals the current
// multi-operation task and submits it to the manager's central queue.
// Sealing also ends the task's trace: the Flush frame carries the trace
// ID, which keys the task's flight on the manager as it does here.
func (q *commandQueue) Flush() error {
	q.mu.Lock()
	hadOps := len(q.unflushed) > 0
	if hadOps {
		// Sealing the task fixes its final operation: that op's terminal
		// notification completes the flight (client-observed total) and
		// applies the milestones batched on the queue. Safe to set here —
		// the manager only executes flushed tasks, so the terminal
		// notification cannot race this store.
		last := q.unflushed[len(q.unflushed)-1]
		last.flightEvs = q.flightEvs
		q.flightEvs = nil
		last.taskEnd.Store(true)
	}
	// The flushed events are the completion path's from here on: keep the
	// array, not them (nor, through dst, the caller's read buffers).
	clear(q.unflushed)
	q.unflushed = q.unflushed[:0]
	trace := q.trace
	q.traceLive, q.trace = false, 0
	q.flightKey = 0
	q.mu.Unlock()
	if !hadOps {
		return nil
	}
	mc := q.ctx.mc
	req := wire.FlushRequest{Queue: q.id, TraceID: uint64(trace)}
	e := wire.GetEncoder(32)
	req.Encode(e)
	err := mc.rpc.Send(wire.MethodFlush, e.Bytes())
	e.Release()
	return err
}

// Finish implements ocl.CommandQueue: flush, then wait for every
// submitted operation.
func (q *commandQueue) Finish() error {
	if err := q.Flush(); err != nil {
		return err
	}
	var firstErr error
	q.mu.Lock()
	// Walk q.events by index instead of copying it: appends keep indices,
	// and only the last Finish out prunes (compacts) it.
	q.finishing++
	for i, n := 0, len(q.events); i < n; i++ {
		ev := q.events[i]
		q.mu.Unlock()
		if err := ev.BaseEvent.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
		q.mu.Lock()
	}
	if q.finishing--; q.finishing == 0 {
		// Prune completed events so long-lived queues do not grow unbounded.
		kept := q.events[:0]
		for _, ev := range q.events {
			if !ev.Status().Done() {
				kept = append(kept, ev)
			}
		}
		clear(q.events[len(kept):]) // the dead tail would keep events and their dst alive
		q.events = kept
	}
	q.mu.Unlock()
	return firstErr
}

// Release implements ocl.CommandQueue.
func (q *commandQueue) Release() error {
	q.mu.Lock()
	if q.released {
		q.mu.Unlock()
		return nil
	}
	q.released = true
	q.mu.Unlock()
	if err := q.Finish(); err != nil {
		return err
	}
	_, err := callID(q.ctx.mc, wire.MethodReleaseQueue, q.id)
	return err
}

// Compile-time checks: the Remote OpenCL Library implements the full ocl
// API surface, the transparency contract shared with the native runtime.
var (
	_ ocl.Client         = (*Client)(nil)
	_ ocl.Platform       = (*platform)(nil)
	_ ocl.Device         = (*device)(nil)
	_ ocl.Context        = (*context)(nil)
	_ ocl.Buffer         = (*buffer)(nil)
	_ ocl.Program        = (*program)(nil)
	_ ocl.Kernel         = (*kernel)(nil)
	_ ocl.CommandQueue   = (*commandQueue)(nil)
	_ ocl.ProfilingEvent = (*remoteEvent)(nil)
)
