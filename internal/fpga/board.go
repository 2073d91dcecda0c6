package fpga

import (
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
)

// Config describes one simulated board and its host link.
type Config struct {
	// Name is the board name reported through the OpenCL device info
	// queries, e.g. "de5a_net : Arria 10 GX".
	Name string
	// Vendor is the device vendor string.
	Vendor string
	// MemBytes is the on-board DDR capacity.
	MemBytes int64
	// Cost is the host-link cost model (PCIe bandwidth, reconfiguration
	// time). Nil selects the worker-node model.
	Cost *model.CostModel
	// TimeScale converts modelled durations into wall time: a kernel
	// modelled at 10 ms occupies the board for 10ms*TimeScale. Configure
	// sleeps it; the data and kernel operations only return their modelled
	// time, and their caller holds the board for it (the Device Manager
	// once per task, the native runtime once per operation). Zero disables
	// sleeping entirely (unit tests); 1.0 is faithful.
	TimeScale float64
}

// DE5aNet returns the configuration of the testbed boards: Terasic
// DE5a-Net with an Intel Arria 10 GX 1150 and 8 GB of DDR.
func DE5aNet(cost *model.CostModel) Config {
	return Config{
		Name:     "de5a_net : Arria 10 GX 1150",
		Vendor:   "Intel(R) Corporation",
		MemBytes: 8 << 30,
		Cost:     cost,
	}
}

// Board simulates one FPGA board. All operations serialize on the board —
// the device executes one DMA or kernel at a time, which is exactly the
// contention the time-sharing experiments measure. The wall time a data
// or kernel operation occupies is its caller's to spend (Hold, or the
// Device Manager's one deadline per task); only Configure sleeps itself.
type Board struct {
	cfg     Config
	catalog *Catalog

	mu        sync.Mutex
	bs        *Bitstream
	buffers   map[uint64][]byte
	nextBuf   uint64
	allocated int64

	// Virtual-time accounting (atomic, nanoseconds).
	busyNanos   atomic.Int64
	bytesIn     atomic.Int64
	bytesOut    atomic.Int64
	kernelRuns  atomic.Int64
	reconfigs   atomic.Int64
	transferOps atomic.Int64
	copyOps     atomic.Int64
	copyBytes   atomic.Int64
}

// NewBoard creates a board resolving binaries against catalog.
func NewBoard(cfg Config, catalog *Catalog) *Board {
	if cfg.Cost == nil {
		cfg.Cost = model.WorkerNode()
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 8 << 30
	}
	return &Board{
		cfg:     cfg,
		catalog: catalog,
		buffers: make(map[uint64][]byte),
		nextBuf: 1,
	}
}

// Config returns the board configuration.
func (b *Board) Config() Config { return b.cfg }

// Cost returns the board's host-link cost model.
func (b *Board) Cost() *model.CostModel { return b.cfg.Cost }

// Hold keeps the board exclusive for modelled duration d scaled by
// TimeScale. Write, Read, Copy and Run account their modelled time but
// return at once; a caller that runs one operation at a time holds the
// board for it here, sleeping through SleepUntil. A no-op at zero
// TimeScale.
func (b *Board) Hold(d time.Duration) {
	if b.cfg.TimeScale > 0 && d > 0 {
		b.mu.Lock()
		b.sleep(d)
		b.mu.Unlock()
	}
}

// sleep blocks for d scaled by TimeScale.
func (b *Board) sleep(d time.Duration) {
	if b.cfg.TimeScale > 0 && d > 0 {
		SleepUntil(time.Now().Add(time.Duration(float64(d) * b.cfg.TimeScale)))
	}
}

// Configure programs the board with the given simulated .aocx binary,
// blocking for the modelled reconfiguration time. Reconfiguring to the
// already-configured bitstream is a cheap no-op, as the Intel runtime
// behaves. It returns the modelled duration the board was blocked for.
func (b *Board) Configure(binary []byte) (time.Duration, error) {
	bs, err := b.catalog.Parse(binary)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bs != nil && b.bs.ID == bs.ID {
		return 0, nil
	}
	b.bs = bs
	b.reconfigs.Add(1)
	d := b.cfg.Cost.ReconfigureTime
	b.busyNanos.Add(int64(d))
	// Reprogramming blocks the board itself: every other operation waits
	// out the scaled reconfiguration behind the mutex.
	b.sleep(d)
	return d, nil
}

// ConfiguredID returns the ID of the configured bitstream, or "".
func (b *Board) ConfiguredID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bs == nil {
		return ""
	}
	return b.bs.ID
}

// ConfiguredAccelerator returns the logical accelerator name of the
// configured bitstream, or "".
func (b *Board) ConfiguredAccelerator() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bs == nil {
		return ""
	}
	return b.bs.Accelerator
}

// MemGeometry returns the configured bitstream's DDR layout name ("" for
// the platform default or a blank board). The Device Manager compares it
// across a reconfiguration to decide whether resident cached buffers are
// still addressable.
func (b *Board) MemGeometry() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bs == nil {
		return ""
	}
	return b.bs.MemGeometry
}

// Alloc reserves a DDR buffer and returns its board-local ID.
func (b *Board) Alloc(size int64) (uint64, error) {
	if size <= 0 {
		return 0, ocl.Errf(ocl.ErrInvalidBufferSize, "buffer size %d", size)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.allocated+size > b.cfg.MemBytes {
		return 0, ocl.Errf(ocl.ErrMemObjectAllocFailure,
			"board DDR exhausted: %d allocated, %d requested, %d capacity",
			b.allocated, size, b.cfg.MemBytes)
	}
	id := b.nextBuf
	b.nextBuf++
	b.buffers[id] = make([]byte, size)
	b.allocated += size
	return id, nil
}

// Free releases a DDR buffer.
func (b *Board) Free(id uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.buffers[id]
	if !ok {
		return ocl.Errf(ocl.ErrInvalidMemObject, "buffer %d", id)
	}
	b.allocated -= int64(len(buf))
	delete(b.buffers, id)
	return nil
}

// Allocated returns the currently reserved DDR bytes.
func (b *Board) Allocated() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allocated
}

// Write DMAs data into buffer id at offset and returns the modelled
// transfer time.
func (b *Board) Write(id uint64, offset int64, data []byte) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.buffers[id]
	if !ok {
		return 0, ocl.Errf(ocl.ErrInvalidMemObject, "write: buffer %d", id)
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(buf)) {
		return 0, ocl.Errf(ocl.ErrInvalidValue,
			"write out of range: off=%d len=%d buf=%d", offset, len(data), len(buf))
	}
	copy(buf[offset:], data)
	d := b.cfg.Cost.PCIeTransfer(int64(len(data)))
	b.bytesIn.Add(int64(len(data)))
	b.transferOps.Add(1)
	b.busyNanos.Add(int64(d))
	return d, nil
}

// Read DMAs buffer id at offset into dst and returns the modelled transfer
// time.
func (b *Board) Read(id uint64, offset int64, dst []byte) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.buffers[id]
	if !ok {
		return 0, ocl.Errf(ocl.ErrInvalidMemObject, "read: buffer %d", id)
	}
	if offset < 0 || offset+int64(len(dst)) > int64(len(buf)) {
		return 0, ocl.Errf(ocl.ErrInvalidValue,
			"read out of range: off=%d len=%d buf=%d", offset, len(dst), len(buf))
	}
	copy(dst, buf[offset:])
	return b.accountRead(int64(len(dst))), nil
}

// ReadView is Read without the copy: it returns the n bytes of buffer id
// at offset as a view of board memory, with Read's accounting (bytes out,
// one transfer op, busy time) and modelled transfer time. The view's
// capacity ends at its length, so an append cannot reach the bytes behind
// it.
//
// The view shows whatever the buffer holds when it is read, not when it
// was taken: it is valid only while the caller knows that nothing writes
// the buffer (Write, Copy or a kernel Run) before it is done with the
// bytes. Alloc, Free and Configure never touch an existing buffer's
// contents; a freed buffer's view keeps its memory alive.
func (b *Board) ReadView(id uint64, offset, n int64) ([]byte, time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.buffers[id]
	if !ok {
		return nil, 0, ocl.Errf(ocl.ErrInvalidMemObject, "read: buffer %d", id)
	}
	if offset < 0 || n < 0 || offset+n > int64(len(buf)) {
		return nil, 0, ocl.Errf(ocl.ErrInvalidValue,
			"read out of range: off=%d len=%d buf=%d", offset, n, len(buf))
	}
	return buf[offset : offset+n : offset+n], b.accountRead(n), nil
}

// accountRead records one device-to-host transfer of n bytes and returns
// its modelled time.
func (b *Board) accountRead(n int64) time.Duration {
	d := b.cfg.Cost.PCIeTransfer(n)
	b.bytesOut.Add(n)
	b.transferOps.Add(1)
	b.busyNanos.Add(int64(d))
	return d
}

// Copy moves n bytes from buffer src at srcOff to buffer dst at dstOff
// on the board (DDR to DDR, never crossing the host link) and returns the
// modelled copy time. It is the execution primitive of zero-copy task
// chaining: the intermediate of a multi-stage pipeline moves at DDR
// bandwidth instead of round-tripping through the client. src == dst is
// allowed for non-overlapping ranges.
func (b *Board) Copy(src, dst uint64, srcOff, dstOff, n int64) (time.Duration, error) {
	if n < 0 {
		return 0, ocl.Errf(ocl.ErrInvalidValue, "copy: negative length %d", n)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sbuf, ok := b.buffers[src]
	if !ok {
		return 0, ocl.Errf(ocl.ErrInvalidMemObject, "copy: src buffer %d", src)
	}
	dbuf, ok := b.buffers[dst]
	if !ok {
		return 0, ocl.Errf(ocl.ErrInvalidMemObject, "copy: dst buffer %d", dst)
	}
	if srcOff < 0 || srcOff+n > int64(len(sbuf)) {
		return 0, ocl.Errf(ocl.ErrInvalidValue,
			"copy src out of range: off=%d len=%d buf=%d", srcOff, n, len(sbuf))
	}
	if dstOff < 0 || dstOff+n > int64(len(dbuf)) {
		return 0, ocl.Errf(ocl.ErrInvalidValue,
			"copy dst out of range: off=%d len=%d buf=%d", dstOff, n, len(dbuf))
	}
	if src == dst && srcOff < dstOff+n && dstOff < srcOff+n {
		return 0, ocl.Errf(ocl.ErrInvalidValue,
			"copy ranges overlap: src=[%d,%d) dst=[%d,%d)", srcOff, srcOff+n, dstOff, dstOff+n)
	}
	copy(dbuf[dstOff:dstOff+n], sbuf[srcOff:srcOff+n])
	d := b.cfg.Cost.DDRCopy(n)
	b.copyOps.Add(1)
	b.copyBytes.Add(n)
	b.busyNanos.Add(int64(d))
	return d, nil
}

// boardMem adapts the board's buffer table to MemAccess for kernel runs.
// It is only valid while the board mutex is held.
type boardMem struct{ b *Board }

func (m boardMem) Bytes(id uint64) ([]byte, error) {
	buf, ok := m.b.buffers[id]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "kernel references unknown buffer %d", id)
	}
	return buf, nil
}

// Run launches the named kernel of the configured bitstream with the given
// arguments and NDRange. It validates argument count and buffer references,
// executes the kernel's real computation, and returns the modelled
// execution time.
func (b *Board) Run(kernel string, args []ocl.Arg, global []int) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bs == nil {
		return 0, ocl.Errf(ocl.ErrInvalidProgramExec, "board %q has no configured bitstream", b.cfg.Name)
	}
	spec, err := b.bs.Kernel(kernel)
	if err != nil {
		return 0, err
	}
	if len(args) != spec.NumArgs {
		return 0, ocl.Errf(ocl.ErrInvalidKernelArgs,
			"kernel %q expects %d args, got %d", kernel, spec.NumArgs, len(args))
	}
	for i, a := range args {
		if a.Kind == ocl.ArgBuffer {
			if _, ok := b.buffers[a.BufferID]; !ok {
				return 0, ocl.Errf(ocl.ErrInvalidMemObject,
					"kernel %q arg %d references unknown buffer %d", kernel, i, a.BufferID)
			}
		}
	}
	if spec.Run != nil {
		if err := runKernel(spec, boardMem{b}, args, global); err != nil {
			return 0, err
		}
	}
	var d time.Duration
	if spec.Model != nil {
		d = spec.Model(args, global)
	}
	b.kernelRuns.Add(1)
	b.busyNanos.Add(int64(d))
	return d, nil
}

// runKernel executes a kernel's computation. A kernel that panics fails
// its own launch with CL_OUT_OF_RESOURCES, the status OpenCL gives a
// crashed kernel, instead of taking down every tenant sharing the board.
func runKernel(spec *KernelSpec, mem MemAccess, args []ocl.Arg, global []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = ocl.Errf(ocl.ErrOutOfResources, "kernel %q panicked: %v", spec.Name, r)
		}
	}()
	return spec.Run(mem, args, global)
}

// BusyTime returns the cumulative modelled device-busy time. The Device
// Manager differentiates it over scrape intervals to produce the FPGA time
// utilization metric of the paper.
func (b *Board) BusyTime() time.Duration { return time.Duration(b.busyNanos.Load()) }

// Stats is a snapshot of the board counters.
type Stats struct {
	BusyTime    time.Duration
	BytesIn     int64
	BytesOut    int64
	KernelRuns  int64
	Reconfigs   int64
	TransferOps int64
	CopyOps     int64
	CopyBytes   int64
	Allocated   int64
}

// Stats snapshots the board counters.
func (b *Board) Stats() Stats {
	return Stats{
		BusyTime:    b.BusyTime(),
		BytesIn:     b.bytesIn.Load(),
		BytesOut:    b.bytesOut.Load(),
		KernelRuns:  b.kernelRuns.Load(),
		Reconfigs:   b.reconfigs.Load(),
		TransferOps: b.transferOps.Load(),
		CopyOps:     b.copyOps.Load(),
		CopyBytes:   b.copyBytes.Load(),
		Allocated:   b.Allocated(),
	}
}

// Catalog returns the bitstream catalog the board resolves binaries
// against. The Device Manager uses it to validate programs and look up
// kernel signatures without configuring the board.
func (b *Board) Catalog() *Catalog { return b.catalog }
