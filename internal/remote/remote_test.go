package remote

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/wire"
)

// rig is a live manager over TCP for white-box client tests.
type rig struct {
	mgr   *manager.Manager
	srv   *rpc.Server
	addr  string
	board *fpga.Board
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigOn(t, fpga.DE5aNet(model.WorkerNode()))
}

// newRigOn serves a manager over a board built from cfg.
func newRigOn(t *testing.T, cfg fpga.Config) *rig {
	t.Helper()
	board := fpga.NewBoard(cfg, accel.Catalog())
	mgr := manager.New(manager.Config{Node: "rignode", DeviceID: "rig0"}, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	return &rig{mgr: mgr, srv: srv, addr: addr, board: board}
}

// newFlight is a library recorder that lives as long as the test.
func newFlight(t *testing.T) *flightrec.Recorder {
	t.Helper()
	rec := flightrec.New(flightrec.Config{Process: "library/" + t.Name()})
	t.Cleanup(rec.Close)
	return rec
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Fatal("no managers must fail")
	}
	if _, err := Dial(Config{Managers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("unreachable manager must fail")
	}
}

// skewedManager answers Hello with a protocol revision other than the
// library's.
type skewedManager struct{}

func (skewedManager) HandleConnect(*rpc.Conn)    {}
func (skewedManager) HandleDisconnect(*rpc.Conn) {}
func (skewedManager) HandleRequest(_ *rpc.Conn, _ wire.Method, _ []byte) ([]byte, error) {
	e := wire.GetEncoder(32)
	(&wire.HelloResponse{SessionID: 1, Node: "skew", Proto: wire.ProtoVersion - 1}).Encode(e)
	return e.Detach(), nil
}

func TestDialRejectsProtocolSkew(t *testing.T) {
	srv := rpc.NewServer(skewedManager{})
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Dial(Config{Managers: []string{addr}, Transport: TransportGRPC}); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("Dial against a skewed manager err = %v, want ErrInvalidValue", err)
	}
}

func TestDialDefaultsClientName(t *testing.T) {
	r := newRig(t)
	c, err := Dial(Config{Managers: []string{r.addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.cfg.ClientName == "" {
		t.Fatal("client name not defaulted")
	}
}

func TestPlatformAndDeviceInfo(t *testing.T) {
	r := newRig(t)
	c, err := Dial(Config{ClientName: "info", Managers: []string{r.addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps, err := c.Platforms()
	if err != nil || len(ps) != 1 {
		t.Fatalf("platforms = %v, %v", ps, err)
	}
	if ps[0].Name() == "" || ps[0].Vendor() == "" || ps[0].Version() == "" {
		t.Fatal("platform strings empty")
	}
	devs, err := ps[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil || len(devs) != 1 {
		t.Fatalf("devices = %v, %v", devs, err)
	}
	d := devs[0]
	if d.Type() != ocl.DeviceTypeAccelerator {
		t.Fatalf("type = %v", d.Type())
	}
	if d.GlobalMemSize() != 8<<30 {
		t.Fatalf("mem = %d", d.GlobalMemSize())
	}
	if !d.Available() {
		t.Fatal("device must be available")
	}
	if d.(*device).Node() != "rignode" {
		t.Fatalf("node = %q", d.(*device).Node())
	}
	if _, err := ps[0].Devices(ocl.DeviceTypeGPU); !errors.Is(err, ocl.ErrDeviceNotFound) {
		t.Fatalf("GPU query err = %v", err)
	}
}

func TestCreateContextValidation(t *testing.T) {
	r1, r2 := newRig(t), newRig(t)
	c, err := Dial(Config{ClientName: "ctx", Managers: []string{r1.addr, r2.addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	if _, err := c.CreateContext(nil); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("empty devices err = %v", err)
	}
	if _, err := c.CreateContext(devs); !errors.Is(err, ocl.ErrInvalidDevice) {
		t.Fatalf("cross-manager context err = %v", err)
	}
	if _, err := c.CreateContext(devs[:1]); err != nil {
		t.Fatalf("single-device context: %v", err)
	}
}

func TestEventMachineFromNotifications(t *testing.T) {
	mc := &managerConn{}
	ev := mc.register(ocl.CommandWriteBuffer, 1)
	steps := []struct {
		n    wire.OpNotification
		want ocl.ExecStatus
	}{
		{wire.OpNotification{State: wire.OpAccepted}, ocl.Submitted},
		{wire.OpNotification{State: wire.OpRunning}, ocl.Running},
		{wire.OpNotification{State: wire.OpComplete, DeviceNanos: 5000}, ocl.Complete},
	}
	for _, s := range steps {
		ev.machine(mc, &s.n)
		if ev.Status() != s.want {
			t.Fatalf("after %v: status = %v, want %v", s.n.State, ev.Status(), s.want)
		}
	}
	if ev.DeviceTime() != 5*time.Microsecond {
		t.Fatalf("device time = %v", ev.DeviceTime())
	}
}

func TestEventMachineFailure(t *testing.T) {
	mc := &managerConn{}
	ev := mc.register(ocl.CommandNDRangeKernel, 2)
	ev.machine(mc, &wire.OpNotification{
		State:  wire.OpFailed,
		Status: int32(ocl.ErrInvalidKernelArgs),
		Error:  "arg 1 unset",
	})
	if !ev.Status().Failed() {
		t.Fatalf("status = %v", ev.Status())
	}
	if !errors.Is(ev.Err(), ocl.ErrInvalidKernelArgs) {
		t.Fatalf("err = %v", ev.Err())
	}
}

func TestReadCompletionCopiesInlineData(t *testing.T) {
	mc := &managerConn{}
	dst := make([]byte, 8)
	ev := mc.register(ocl.CommandReadBuffer, 3)
	ev.dst = dst
	ev.machine(mc, &wire.OpNotification{State: wire.OpComplete, Data: []byte("ABCDEFGH")})
	if string(dst) != "ABCDEFGH" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestConnectionLossFailsInFlightEvents(t *testing.T) {
	r := newRig(t)
	c, err := Dial(Config{ClientName: "loss", Managers: []string{r.addr}, Transport: TransportGRPC, Flight: newFlight(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, err := c.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(ocl.MemReadWrite, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue work but keep the task unflushed, then kill the server: the
	// events must fail rather than hang.
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 1<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.srv.Close()
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("event must fail after connection loss")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after connection loss")
	}
}

func TestArenaStagingIsReleased(t *testing.T) {
	r := newRig(t)
	c, err := Dial(Config{
		ClientName: "arena",
		Managers:   []string{r.addr},
		Transport:  TransportShm,
		ShmDir:     t.TempDir(),
		ShmBytes:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mc := c.conns[0]
	free0 := mc.arena.FreeBytes()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	q, _ := ctx.CreateCommandQueue(devs[0], 0)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 64<<10, nil)
	for i := 0; i < 20; i++ {
		if _, err := q.EnqueueWriteBuffer(buf, true, 0, make([]byte, 64<<10), nil); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 64<<10)
		if _, err := q.EnqueueReadBuffer(buf, true, 0, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := mc.arena.FreeBytes(); got != free0 {
		t.Fatalf("arena leaked: %d free, want %d", got, free0)
	}
}

// openRig dials the rig and opens context + queue — boilerplate for the
// buffer-lifecycle edge tests.
func openRig(t *testing.T, r *rig, name string) (*Client, ocl.Context, ocl.CommandQueue) {
	t.Helper()
	c, err := Dial(Config{ClientName: name, Managers: []string{r.addr}, Transport: TransportGRPC, Flight: newFlight(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, err := c.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, ctx, q
}

func TestDoubleReleaseBufferReturnsTypedError(t *testing.T) {
	r := newRig(t)
	_, ctx, _ := openRig(t, r, "dbl-release")
	buf, err := ctx.CreateBuffer(ocl.MemReadWrite, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Release(); err != nil {
		t.Fatalf("first release: %v", err)
	}
	err = buf.Release()
	if !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("second release err = %v, want ErrInvalidMemObject", err)
	}
}

func TestReleaseWithInFlightEnqueueFailsEventNotClient(t *testing.T) {
	r := newRig(t)
	_, ctx, q := openRig(t, r, "rel-inflight")
	buf, err := ctx.CreateBuffer(ocl.MemReadWrite, 64<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue into the unflushed task, release the buffer underneath it,
	// then flush: the op must fail on its event with a typed error — no
	// panic, no hang, and the queue stays usable.
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 64<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Release(); err != nil {
		t.Fatalf("release with in-flight enqueue: %v", err)
	}
	if err := q.Flush(); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, ocl.ErrInvalidMemObject) {
			t.Fatalf("in-flight op err = %v, want ErrInvalidMemObject", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event hung after buffer release")
	}
	// The session survived: a fresh buffer round-trips.
	buf2, err := ctx.CreateBuffer(ocl.MemReadWrite, 4096, nil)
	if err != nil {
		t.Fatalf("create after failed op: %v", err)
	}
	if _, err := q.EnqueueWriteBuffer(buf2, true, 0, make([]byte, 4096), nil); err != nil {
		t.Fatalf("write after failed op: %v", err)
	}
}

func TestCreateBufferAfterConnectionLossReturnsTypedError(t *testing.T) {
	r := newRig(t)
	_, ctx, _ := openRig(t, r, "create-loss")
	if _, err := ctx.CreateBuffer(ocl.MemReadWrite, 4096, nil); err != nil {
		t.Fatal(err)
	}
	r.srv.Close()
	// Both the plain and the content-hashed create paths must surface the
	// transport failure as the typed manager-down error, not a panic or a
	// leaked handle.
	_, err := ctx.CreateBuffer(ocl.MemReadWrite, 4096, nil)
	if !errors.Is(err, rpc.ErrManagerDown) {
		t.Fatalf("plain create after loss err = %v, want ErrManagerDown", err)
	}
	_, err = ctx.CreateBuffer(ocl.MemReadOnly, 4096, make([]byte, 4096))
	if !errors.Is(err, rpc.ErrManagerDown) {
		t.Fatalf("hashed create after loss err = %v, want ErrManagerDown", err)
	}
}

func TestMarkersAndBarriers(t *testing.T) {
	r := newRig(t)
	c, err := Dial(Config{ClientName: "marker", Managers: []string{r.addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	q, _ := ctx.CreateCommandQueue(devs[0], 0)

	// Marker on an empty queue completes immediately.
	mev, err := q.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if mev.Status() != ocl.Complete {
		t.Fatalf("empty-queue marker = %v", mev.Status())
	}

	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 1024, nil)
	var completions atomic.Int32
	for i := 0; i < 3; i++ {
		ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 1024), nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if ev.Wait() == nil {
				completions.Add(1)
			}
		}()
	}
	mev, err = q.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueBarrier(); err != nil { // barrier flushes the task
		t.Fatal(err)
	}
	if err := mev.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for completions.Load() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if completions.Load() != 3 {
		t.Fatalf("marker completed before its predecessors (%d/3)", completions.Load())
	}
}

func TestZeroLengthTransfers(t *testing.T) {
	r := newRig(t)
	c, _ := Dial(Config{ClientName: "zero", Managers: []string{r.addr}, Transport: TransportGRPC})
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	q, _ := ctx.CreateCommandQueue(devs[0], 0)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 16, nil)
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, nil, nil)
	if err != nil || ev.Status() != ocl.Complete {
		t.Fatalf("zero write: %v, %v", ev, err)
	}
	ev, err = q.EnqueueReadBuffer(buf, false, 0, nil, nil)
	if err != nil || ev.Status() != ocl.Complete {
		t.Fatalf("zero read: %v, %v", ev, err)
	}
}

func TestBufferRangeValidationClientSide(t *testing.T) {
	r := newRig(t)
	c, _ := Dial(Config{ClientName: "range", Managers: []string{r.addr}, Transport: TransportGRPC})
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	q, _ := ctx.CreateCommandQueue(devs[0], 0)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 16, nil)
	if _, err := q.EnqueueWriteBuffer(buf, false, 8, make([]byte, 16), nil); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("overflow write err = %v", err)
	}
	if _, err := q.EnqueueReadBuffer(buf, false, -1, make([]byte, 4), nil); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("negative offset err = %v", err)
	}
	if _, err := ctx.CreateBuffer(ocl.MemFlags(0), 16, nil); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("bad flags err = %v", err)
	}
	if _, err := ctx.CreateBuffer(ocl.MemReadWrite, 4, make([]byte, 8)); !errors.Is(err, ocl.ErrInvalidBufferSize) {
		t.Fatalf("oversized init err = %v", err)
	}
}

func TestKernelArgValidation(t *testing.T) {
	r := newRig(t)
	c, _ := Dial(Config{ClientName: "args", Managers: []string{r.addr}, Transport: TransportGRPC})
	defer c.Close()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if names := prog.KernelNames(); len(names) != 1 || names[0] != "copy" {
		t.Fatalf("kernels = %v", names)
	}
	k, err := prog.CreateKernel("copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(-1, int32(0)); !errors.Is(err, ocl.ErrInvalidArgIndex) {
		t.Fatalf("negative index err = %v", err)
	}
	if err := k.SetArg(7, int32(0)); !errors.Is(err, ocl.ErrInvalidArgIndex) {
		t.Fatalf("out-of-range index err = %v", err)
	}
	if err := k.SetArg(0, "a string"); !errors.Is(err, ocl.ErrInvalidArgValue) {
		t.Fatalf("bad value err = %v", err)
	}
	if _, err := prog.CreateKernel("missing"); !errors.Is(err, ocl.ErrInvalidKernelName) {
		t.Fatalf("missing kernel err = %v", err)
	}
}

// TestBuildTimeoutCoversAdvertisedReconfigureTime is the regression test
// for the reconfiguration RPC timeout: the Build deadline must be derived
// from the manager's advertised reconfiguration time (DeviceInfo's
// ReconfigMillis) plus margin, not the flat per-call timeout. The cost
// model is inflated to a 30 s modelled reprogram at TimeScale 0.01 — a
// 300 ms wall flash — while the client's CallTimeout is 50 ms; with the
// old flat deadline the Build call expired mid-flash.
func TestBuildTimeoutCoversAdvertisedReconfigureTime(t *testing.T) {
	cost := *model.WorkerNode()
	cost.ReconfigureTime = 30 * time.Second
	cfg := fpga.DE5aNet(&cost)
	cfg.TimeScale = 0.01
	board := fpga.NewBoard(cfg, accel.Catalog())
	mgr := manager.New(manager.Config{Node: "slownode", DeviceID: "slow0"}, board)
	srv := rpc.NewServer(mgr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); mgr.Close() }()

	c, err := Dial(Config{
		ClientName:  "slowbuild",
		Managers:    []string{addr},
		Transport:   TransportGRPC,
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ms := c.conns[0].info.ReconfigMillis; ms != 300 {
		t.Fatalf("advertised ReconfigMillis = %d, want 300 (30s modelled at 0.01 scale)", ms)
	}

	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs[:1])
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := prog.Build(""); err != nil {
		t.Fatalf("Build with advertised reconfigure time failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("build returned after %v — flash did not actually sleep", elapsed)
	}
	if names := prog.KernelNames(); len(names) == 0 {
		t.Fatal("built program reports no kernels")
	}
}
