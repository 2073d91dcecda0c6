// Package native implements the baseline OpenCL runtime of the paper's
// evaluation: direct, exclusive access to a board over PCIe passthrough,
// with no Device Manager, no sharing and no extra data copies.
//
// It serves two roles: it is the "Native" series every experiment compares
// BlastFunction against, and it doubles as a reference implementation of
// the ocl API semantics that the remote library must match (the
// transparency property: the same host code runs on either).
package native

import (
	"sync"

	"blastfunction/internal/fpga"
	"blastfunction/internal/ocl"
)

// Client implements ocl.Client over local boards.
type Client struct {
	boards []*fpga.Board

	mu     sync.Mutex
	closed bool
}

// New creates a native runtime owning the given boards.
func New(boards ...*fpga.Board) *Client {
	return &Client{boards: boards}
}

// Platforms implements ocl.Client.
func (c *Client) Platforms() ([]ocl.Platform, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ocl.Errf(ocl.ErrInvalidOperation, "client closed")
	}
	return []ocl.Platform{&platform{client: c}}, nil
}

// CreateContext implements ocl.Client. A context owns exactly one board,
// matching the Intel FPGA runtime deployment the paper measures.
func (c *Client) CreateContext(devices []ocl.Device) (ocl.Context, error) {
	if len(devices) != 1 {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "native contexts hold exactly one device")
	}
	d, ok := devices[0].(*device)
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "foreign device %T", devices[0])
	}
	return &context{board: d.board, devices: []ocl.Device{d}}, nil
}

// Close implements ocl.Client.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

type platform struct{ client *Client }

// Name implements ocl.Platform.
func (p *platform) Name() string { return "Intel(R) FPGA SDK for OpenCL(TM) (native simulation)" }

// Vendor implements ocl.Platform.
func (p *platform) Vendor() string { return "Intel(R) Corporation" }

// Version implements ocl.Platform.
func (p *platform) Version() string { return "OpenCL 1.2 native-sim" }

// Devices implements ocl.Platform.
func (p *platform) Devices(typ ocl.DeviceType) ([]ocl.Device, error) {
	if typ&(ocl.DeviceTypeAccelerator|ocl.DeviceTypeDefault) == 0 && typ != ocl.DeviceTypeAll {
		return nil, ocl.Errf(ocl.ErrDeviceNotFound, "platform has only accelerator devices")
	}
	devs := make([]ocl.Device, 0, len(p.client.boards))
	for _, b := range p.client.boards {
		devs = append(devs, &device{board: b})
	}
	return devs, nil
}

type device struct{ board *fpga.Board }

// Name implements ocl.Device.
func (d *device) Name() string { return d.board.Config().Name }

// Vendor implements ocl.Device.
func (d *device) Vendor() string { return d.board.Config().Vendor }

// Type implements ocl.Device.
func (d *device) Type() ocl.DeviceType { return ocl.DeviceTypeAccelerator }

// GlobalMemSize implements ocl.Device.
func (d *device) GlobalMemSize() int64 { return d.board.Config().MemBytes }

// Available implements ocl.Device.
func (d *device) Available() bool { return true }

// context implements ocl.Context.
type context struct {
	board   *fpga.Board
	devices []ocl.Device

	mu     sync.Mutex
	queues []*commandQueue
}

// Devices implements ocl.Context.
func (c *context) Devices() []ocl.Device { return c.devices }

// CreateCommandQueue implements ocl.Context. Each queue runs a dispatcher
// goroutine that executes commands in order against the board, like the
// vendor driver's per-queue submission thread.
func (c *context) CreateCommandQueue(d ocl.Device, props ocl.QueueProps) (ocl.CommandQueue, error) {
	nd, ok := d.(*device)
	if !ok || nd.board != c.board {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "device does not belong to this context")
	}
	q := &commandQueue{ctx: c, work: make(chan func(), 256)}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		for fn := range q.work {
			fn()
		}
	}()
	c.mu.Lock()
	c.queues = append(c.queues, q)
	c.mu.Unlock()
	return q, nil
}

// CreateBuffer implements ocl.Context.
func (c *context) CreateBuffer(flags ocl.MemFlags, size int, hostData []byte) (ocl.Buffer, error) {
	if !flags.Valid() {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "buffer flags %#x", uint32(flags))
	}
	if size <= 0 || (hostData != nil && len(hostData) > size) {
		return nil, ocl.Errf(ocl.ErrInvalidBufferSize, "size %d, init %d", size, len(hostData))
	}
	id, err := c.board.Alloc(int64(size))
	if err != nil {
		return nil, err
	}
	if len(hostData) > 0 {
		d, err := c.board.Write(id, 0, hostData)
		if err != nil {
			c.board.Free(id)
			return nil, err
		}
		c.board.Hold(d)
	}
	return &buffer{ctx: c, boardID: id, size: size, flags: flags}, nil
}

// CreateProgramWithBinary implements ocl.Context.
func (c *context) CreateProgramWithBinary(d ocl.Device, binary []byte) (ocl.Program, error) {
	nd, ok := d.(*device)
	if !ok || nd.board != c.board {
		return nil, ocl.Errf(ocl.ErrInvalidDevice, "device does not belong to this context")
	}
	bs, err := c.board.Catalog().Parse(binary)
	if err != nil {
		return nil, err
	}
	return &program{ctx: c, bs: bs, binary: binary}, nil
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
	return nil
}

// buffer implements ocl.Buffer.
type buffer struct {
	ctx     *context
	boardID uint64
	size    int
	flags   ocl.MemFlags
}

// Size implements ocl.Buffer.
func (b *buffer) Size() int { return b.size }

// Flags implements ocl.Buffer.
func (b *buffer) Flags() ocl.MemFlags { return b.flags }

// Release implements ocl.Buffer.
func (b *buffer) Release() error { return b.ctx.board.Free(b.boardID) }

// program implements ocl.Program.
type program struct {
	ctx    *context
	bs     *fpga.Bitstream
	binary []byte
}

// Build implements ocl.Program: it programs the board.
func (p *program) Build(options string) error {
	_, err := p.ctx.board.Configure(p.binary)
	return err
}

// KernelNames implements ocl.Program.
func (p *program) KernelNames() []string { return p.bs.KernelNames() }

// CreateKernel implements ocl.Program.
func (p *program) CreateKernel(name string) (ocl.Kernel, error) {
	spec, err := p.bs.Kernel(name)
	if err != nil {
		return nil, err
	}
	return &kernel{
		ctx:  p.ctx,
		name: name,
		args: make([]ocl.Arg, spec.NumArgs),
		set:  make([]bool, spec.NumArgs),
	}, nil
}

// Release implements ocl.Program.
func (p *program) Release() error { return nil }

// kernel implements ocl.Kernel.
type kernel struct {
	ctx  *context
	name string

	mu   sync.Mutex
	args []ocl.Arg
	set  []bool
}

// Name implements ocl.Kernel.
func (k *kernel) Name() string { return k.name }

// SetArg implements ocl.Kernel.
func (k *kernel) SetArg(i int, value any) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i < 0 || i >= len(k.args) {
		return ocl.Errf(ocl.ErrInvalidArgIndex, "kernel %q has %d args, index %d", k.name, len(k.args), i)
	}
	if b, ok := value.(ocl.Buffer); ok {
		nb, ok := b.(*buffer)
		if !ok || nb.ctx != k.ctx {
			return ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
		}
		k.args[i] = ocl.BufferArg(nb.boardID)
	} else {
		a, err := ocl.PackArg(value)
		if err != nil {
			return err
		}
		k.args[i] = a
	}
	k.set[i] = true
	return nil
}

// snapshot captures the bound arguments, failing on unset ones.
func (k *kernel) snapshot() ([]ocl.Arg, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, set := range k.set {
		if !set {
			return nil, ocl.Errf(ocl.ErrInvalidKernelArgs, "kernel %q: argument %d not set", k.name, i)
		}
	}
	return append([]ocl.Arg(nil), k.args...), nil
}

// Release implements ocl.Kernel.
func (k *kernel) Release() error { return nil }

// commandQueue implements ocl.CommandQueue with a per-queue dispatcher.
type commandQueue struct {
	ctx  *context
	work chan func()
	wg   sync.WaitGroup

	mu       sync.Mutex
	events   []*ocl.BaseEvent
	released bool
}

func (q *commandQueue) dispatch(cmd ocl.CommandType, run func(ev *ocl.BaseEvent)) (*ocl.BaseEvent, error) {
	ev := ocl.NewEvent(cmd)
	q.mu.Lock()
	if q.released {
		q.mu.Unlock()
		return nil, ocl.Errf(ocl.ErrInvalidCommandQueue, "queue released")
	}
	q.events = append(q.events, ev)
	q.mu.Unlock()
	q.work <- func() {
		ev.SetStatus(ocl.Running)
		run(ev)
	}
	return ev, nil
}

// EnqueueWriteBuffer implements ocl.CommandQueue.
func (q *commandQueue) EnqueueWriteBuffer(b ocl.Buffer, blocking bool, offset int, data []byte, waitList []ocl.Event) (ocl.Event, error) {
	nb, ok := b.(*buffer)
	if !ok || nb.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
	}
	if offset < 0 || offset+len(data) > nb.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "write range")
	}
	if err := ocl.WaitForEvents(waitList...); err != nil {
		return nil, err
	}
	// Non-blocking writes require the caller to keep data stable until
	// completion (OpenCL semantics); the dispatcher uses it directly —
	// zero extra copies, the defining property of the native baseline.
	ev, err := q.dispatch(ocl.CommandWriteBuffer, func(ev *ocl.BaseEvent) {
		d, err := q.ctx.board.Write(nb.boardID, int64(offset), data)
		if err != nil {
			ev.Fail(err)
			return
		}
		q.ctx.board.Hold(d)
		ev.SetDeviceTime(d)
		ev.Complete()
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if err := ev.Wait(); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// EnqueueReadBuffer implements ocl.CommandQueue.
func (q *commandQueue) EnqueueReadBuffer(b ocl.Buffer, blocking bool, offset int, dst []byte, waitList []ocl.Event) (ocl.Event, error) {
	nb, ok := b.(*buffer)
	if !ok || nb.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer from a different context")
	}
	if offset < 0 || offset+len(dst) > nb.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "read range")
	}
	if err := ocl.WaitForEvents(waitList...); err != nil {
		return nil, err
	}
	ev, err := q.dispatch(ocl.CommandReadBuffer, func(ev *ocl.BaseEvent) {
		d, err := q.ctx.board.Read(nb.boardID, int64(offset), dst)
		if err != nil {
			ev.Fail(err)
			return
		}
		q.ctx.board.Hold(d)
		ev.SetDeviceTime(d)
		ev.Complete()
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if err := ev.Wait(); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// EnqueueCopyBuffer implements ocl.CommandQueue: a device-to-device move
// through the board's DDR, never touching host memory.
func (q *commandQueue) EnqueueCopyBuffer(src, dst ocl.Buffer, srcOffset, dstOffset, n int, waitList []ocl.Event) (ocl.Event, error) {
	ns, ok := src.(*buffer)
	if !ok || ns.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "src buffer from a different context")
	}
	nd, ok := dst.(*buffer)
	if !ok || nd.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "dst buffer from a different context")
	}
	if n < 0 || srcOffset < 0 || srcOffset+n > ns.size || dstOffset < 0 || dstOffset+n > nd.size {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "copy range")
	}
	if err := ocl.WaitForEvents(waitList...); err != nil {
		return nil, err
	}
	return q.dispatch(ocl.CommandCopyBuffer, func(ev *ocl.BaseEvent) {
		d, err := q.ctx.board.Copy(ns.boardID, nd.boardID, int64(srcOffset), int64(dstOffset), int64(n))
		if err != nil {
			ev.Fail(err)
			return
		}
		q.ctx.board.Hold(d)
		ev.SetDeviceTime(d)
		ev.Complete()
	})
}

// EnqueueNDRangeKernel implements ocl.CommandQueue.
func (q *commandQueue) EnqueueNDRangeKernel(k ocl.Kernel, global, local []int, waitList []ocl.Event) (ocl.Event, error) {
	nk, ok := k.(*kernel)
	if !ok || nk.ctx != q.ctx {
		return nil, ocl.Errf(ocl.ErrInvalidKernel, "kernel from a different context")
	}
	args, err := nk.snapshot()
	if err != nil {
		return nil, err
	}
	if err := ocl.WaitForEvents(waitList...); err != nil {
		return nil, err
	}
	return q.dispatch(ocl.CommandNDRangeKernel, func(ev *ocl.BaseEvent) {
		d, err := q.ctx.board.Run(nk.name, args, global)
		if err != nil {
			ev.Fail(err)
			return
		}
		q.ctx.board.Hold(d)
		ev.SetDeviceTime(d)
		ev.Complete()
	})
}

// EnqueueTask implements ocl.CommandQueue.
func (q *commandQueue) EnqueueTask(k ocl.Kernel, waitList []ocl.Event) (ocl.Event, error) {
	return q.EnqueueNDRangeKernel(k, []int{1}, nil, waitList)
}

// EnqueueMarker implements ocl.CommandQueue.
func (q *commandQueue) EnqueueMarker() (ocl.Event, error) {
	return q.dispatch(ocl.CommandMarker, func(ev *ocl.BaseEvent) { ev.Complete() })
}

// EnqueueBarrier implements ocl.CommandQueue: the per-queue dispatcher is
// already strictly in order, so the barrier is a sequencing no-op.
func (q *commandQueue) EnqueueBarrier() error { return nil }

// Flush implements ocl.CommandQueue: commands are submitted eagerly.
func (q *commandQueue) Flush() error { return nil }

// Finish implements ocl.CommandQueue.
func (q *commandQueue) Finish() error {
	q.mu.Lock()
	snapshot := append([]*ocl.BaseEvent(nil), q.events...)
	q.mu.Unlock()
	var firstErr error
	for _, ev := range snapshot {
		if err := ev.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	q.mu.Lock()
	kept := q.events[:0]
	for _, ev := range q.events {
		if !ev.Status().Done() {
			kept = append(kept, ev)
		}
	}
	q.events = kept
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
	err := q.Finish()
	close(q.work)
	q.wg.Wait()
	return err
}

// Compile-time checks: the native runtime implements the full ocl API
// surface, the transparency contract shared with the remote library.
var (
	_ ocl.Client       = (*Client)(nil)
	_ ocl.Platform     = (*platform)(nil)
	_ ocl.Device       = (*device)(nil)
	_ ocl.Context      = (*context)(nil)
	_ ocl.Buffer       = (*buffer)(nil)
	_ ocl.Program      = (*program)(nil)
	_ ocl.Kernel       = (*kernel)(nil)
	_ ocl.CommandQueue = (*commandQueue)(nil)
)
