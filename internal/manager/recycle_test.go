package manager_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
)

// gatedRig is a manager whose board runs a design with three kernels:
//   - "block" reports on started, then holds the board until the test
//     sends on gate, so the tasks behind it wait in the central queue;
//   - "nop" does nothing;
//   - "copy" copies n bytes from its first buffer to its second. A
//     negative n fails the launch with the status -n names.
type gatedRig struct {
	*testRig
	started chan struct{}
	gate    chan struct{}
	bs      *fpga.Bitstream
}

func newGatedRig(t *testing.T, cfg manager.Config) *gatedRig {
	t.Helper()
	g := &gatedRig{started: make(chan struct{}, 4), gate: make(chan struct{})}
	g.bs = &fpga.Bitstream{ID: "gated", Accelerator: "gated", Kernels: []fpga.KernelSpec{
		{Name: "block", Run: func(fpga.MemAccess, []ocl.Arg, []int) error {
			g.started <- struct{}{}
			<-g.gate
			return nil
		}},
		{Name: "nop"},
		{Name: "copy", NumArgs: 3, Run: func(mem fpga.MemAccess, args []ocl.Arg, _ []int) error {
			n := int(args[2].IntValue())
			if n < 0 {
				return ocl.Errf(ocl.Status(n), "poisoned length")
			}
			src, err := mem.Bytes(args[0].BufferID)
			if err != nil {
				return err
			}
			dst, err := mem.Bytes(args[1].BufferID)
			if err != nil {
				return err
			}
			copy(dst[:n], src[:n])
			return nil
		}},
	}}
	catalog := accel.Catalog()
	catalog.Add(g.bs)
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), catalog)
	cfg.Node, cfg.DeviceID = "n", "d"
	mgr := manager.New(cfg, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	// Runs before the close above: a failed test must not leave the
	// worker holding the board.
	t.Cleanup(func() { close(g.gate) })
	g.testRig = &testRig{mgr: mgr, srv: srv, addr: addr, board: board}
	return g
}

// gatedTenant is one client of a gatedRig with the design built.
type gatedTenant struct {
	ctx  ocl.Context
	dev  ocl.Device
	q    ocl.CommandQueue
	prog ocl.Program
}

func (g *gatedRig) open(t *testing.T, mode remote.TransportMode, name string) *gatedTenant {
	t.Helper()
	ctx, dev, q := openDevice(t, dialRig(t, g.testRig, mode, name))
	prog, err := ctx.CreateProgramWithBinary(dev, g.bs.Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	return &gatedTenant{ctx: ctx, dev: dev, q: q, prog: prog}
}

func (gt *gatedTenant) kernel(t *testing.T, name string, args ...any) ocl.Kernel {
	t.Helper()
	k, err := gt.prog.CreateKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range args {
		if err := k.SetArg(i, a); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// flushTask enqueues a launch of k as a task of its own and flushes it.
func (gt *gatedTenant) flushTask(t *testing.T, k ocl.Kernel) {
	t.Helper()
	if _, err := gt.q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	if err := gt.q.Flush(); err != nil {
		t.Fatal(err)
	}
}

// settle returns once the manager has handled every frame the client sent
// before it: a connection's requests are dispatched in order, and this
// one is a synchronous call that stays off the board the test may hold.
func (gt *gatedTenant) settle(t *testing.T) {
	t.Helper()
	if _, err := gt.ctx.CreateCommandQueue(gt.dev, 0); err != nil {
		t.Fatal(err)
	}
}

// The lease sweeper fails the tasks an expired session has waiting in the
// central queue, and the availability SLI counts each, as the worker does
// a task it finds expired at pop.
func TestLeaseExpiryCountsQueuedTaskFailures(t *testing.T) {
	g := newGatedRig(t, manager.Config{LeaseDuration: time.Hour})
	holder := g.open(t, remote.TransportGRPC, "holder")
	block := holder.kernel(t, "block")
	expiring := g.open(t, remote.TransportGRPC, "expiring")
	nop := expiring.kernel(t, "nop")
	holder.flushTask(t, block)
	<-g.started // the board is busy from here on

	const queued = 3
	for i := 0; i < queued; i++ {
		expiring.flushTask(t, nop)
	}
	expiring.settle(t)

	failures := g.mgr.Metrics().Counter("bf_tenant_task_failures_total", "",
		metrics.Labels{"device": "d", "node": "n", "tenant": "expiring"})
	before := failures.Value()
	g.mgr.SweepLeases(time.Now().Add(2 * time.Hour))
	if got := failures.Value() - before; got != queued {
		t.Fatalf("expiry with %d tasks queued counted %v task failures", queued, got)
	}
	g.gate <- struct{}{}
}

// The executed task of a queue is handed back for reuse while the
// queue's next task still waits in the central queue. Tasks A and B of one
// queue sit behind a held board with the holder's second block between
// them; A runs, the block holds the board again, and while B still waits,
// C and D are built from the task A handed back. Finish returns once all
// four have ended, with the first failure in enqueue order, and every
// read-back matches what was written.
func TestTaskReuseWhileSiblingWaits(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode remote.TransportMode
	}{{"shm", remote.TransportShm}, {"inline", remote.TransportGRPC}} {
		for _, failing := range []bool{false, true} {
			name := mode.name
			if failing {
				name += "/failing"
			}
			t.Run(name, func(t *testing.T) { testReuseWhileSiblingWaits(t, mode.mode, failing) })
		}
	}
}

func testReuseWhileSiblingWaits(t *testing.T, mode remote.TransportMode, failing bool) {
	g := newGatedRig(t, manager.Config{})
	holder := g.open(t, mode, "holder")
	block := holder.kernel(t, "block")
	tenant := g.open(t, mode, "reuse")

	// Four tasks of write, copy, read-back. In the failing run A and B
	// fail their copies with distinct statuses.
	const size = 4 << 10
	type task struct {
		name      string
		src, dst  []byte
		in, out   ocl.Buffer
		k         ocl.Kernel
		evs       []ocl.Event
		poisonErr ocl.Status
	}
	tasks := make([]*task, 4)
	for i, name := range []string{"A", "B", "C", "D"} {
		tk := &task{name: name, src: bytes.Repeat([]byte{byte(0x11 * (i + 1))}, size), dst: make([]byte, size)}
		tk.src[i] ^= 0xff
		var err error
		if tk.in, err = tenant.ctx.CreateBuffer(ocl.MemReadWrite, size, nil); err != nil {
			t.Fatal(err)
		}
		if tk.out, err = tenant.ctx.CreateBuffer(ocl.MemReadWrite, size, nil); err != nil {
			t.Fatal(err)
		}
		n := int32(size)
		if failing && i < 2 {
			tk.poisonErr = []ocl.Status{ocl.ErrInvalidValue, ocl.ErrOutOfResources}[i]
			n = int32(tk.poisonErr)
		}
		tk.k = tenant.kernel(t, "copy", tk.in, tk.out, n)
		tasks[i] = tk
	}
	enqueue := func(tk *task) {
		t.Helper()
		w, err := tenant.q.EnqueueWriteBuffer(tk.in, false, 0, tk.src, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, err := tenant.q.EnqueueTask(tk.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tenant.q.EnqueueReadBuffer(tk.out, false, 0, tk.dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		tk.evs = []ocl.Event{w, k, r}
	}
	flush := func() {
		t.Helper()
		if err := tenant.q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	A, B, C, D := tasks[0], tasks[1], tasks[2], tasks[3]

	holder.flushTask(t, block)
	<-g.started
	enqueue(A)
	flush()
	tenant.settle(t)
	holder.flushTask(t, block) // between A and B in the central queue
	holder.settle(t)
	enqueue(B)
	flush()
	tenant.settle(t)

	g.gate <- struct{}{} // A runs, then the second block holds the board
	<-g.started
	A.evs[2].Wait()
	if st := B.evs[0].Status(); st.Done() {
		t.Fatalf("B ran before the second block released the board: its write is %v", st)
	}
	enqueue(C) // reuses the task A handed back
	flush()
	enqueue(D) // into A's op array, left for Finish to flush
	tenant.settle(t)
	g.gate <- struct{}{}
	finished := make(chan error, 1)
	go func() { finished <- tenant.q.Finish() }()
	var err error
	select {
	case err = <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Finish still waiting 10s after the board was released: an operation was lost")
	}
	for _, tk := range tasks {
		for _, ev := range tk.evs {
			if !ev.Status().Done() {
				t.Fatalf("Finish returned with %s's %v event %v", tk.name, ev.CommandType(), ev.Status())
			}
		}
	}
	if failing {
		if !errors.Is(err, A.poisonErr) {
			t.Fatalf("Finish = %v, want A's %v (the first failure in enqueue order)", err, A.poisonErr)
		}
	} else if err != nil {
		t.Fatalf("Finish = %v", err)
	}
	for _, tk := range tasks {
		if tk.poisonErr != 0 {
			continue
		}
		if got, want := crc32.ChecksumIEEE(tk.dst), crc32.ChecksumIEEE(tk.src); got != want {
			t.Errorf("task %s read back CRC %08x, wrote %08x", tk.name, got, want)
		}
	}
}
