package manager_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/native"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
)

// testRig is a manager serving one simulated board over real TCP.
type testRig struct {
	mgr   *manager.Manager
	srv   *rpc.Server
	addr  string
	board *fpga.Board
}

func newRig(t *testing.T, cfg manager.Config) *testRig {
	t.Helper()
	return newBoardRig(t, fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog()), cfg)
}

// newBoardRig serves the given board.
func newBoardRig(t *testing.T, board *fpga.Board, cfg manager.Config) *testRig {
	t.Helper()
	if cfg.Node == "" {
		cfg.Node = "testnode"
	}
	mgr := manager.New(cfg, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return &testRig{mgr: mgr, srv: srv, addr: addr, board: board}
}

func dialRig(t *testing.T, rig *testRig, mode remote.TransportMode, name string) *remote.Client {
	t.Helper()
	client, err := remote.Dial(remote.Config{
		ClientName: name,
		Managers:   []string{rig.addr},
		Transport:  mode,
		ShmDir:     t.TempDir(),
		ShmBytes:   16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// openDevice discovers the single device and builds context + queue.
func openDevice(t *testing.T, client ocl.Client) (ocl.Context, ocl.Device, ocl.CommandQueue) {
	t.Helper()
	platforms, err := client.Platforms()
	if err != nil {
		t.Fatal(err)
	}
	if len(platforms) != 1 {
		t.Fatalf("platforms = %d", len(platforms))
	}
	devs, err := platforms[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) == 0 {
		t.Fatal("no devices")
	}
	ctx, err := client.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, devs[0], q
}

// buildLoopback loads and builds the diagnostic loopback design.
func buildLoopback(t *testing.T, ctx ocl.Context, dev ocl.Device) ocl.Kernel {
	t.Helper()
	prog, err := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("copy")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// runCopy runs the write -> copy kernel -> read round trip through any ocl
// client — the transparency check host code.
func runCopy(t *testing.T, ctx ocl.Context, q ocl.CommandQueue, k ocl.Kernel, payload []byte) []byte {
	t.Helper()
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Release()
	defer out.Release()
	if err := k.SetArg(0, in); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, out); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(len(payload))); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	if _, err := q.EnqueueReadBuffer(out, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestRemoteRoundTripGRPC(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "fpga0"})
	client := dialRig(t, rig, remote.TransportGRPC, "it-grpc")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	payload := bytes.Repeat([]byte("grpc-path!"), 100)
	if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through gRPC data path")
	}
	if client.Transport(0) != model.TransportGRPC {
		t.Fatalf("transport = %v", client.Transport(0))
	}
}

func TestRemoteRoundTripShm(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "fpga0"})
	client := dialRig(t, rig, remote.TransportShm, "it-shm")
	if client.Transport(0) != model.TransportShm {
		t.Fatalf("transport = %v, want shm", client.Transport(0))
	}
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	payload := bytes.Repeat([]byte("shm-path!!"), 1000)
	if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through shm data path")
	}
}

func TestSobelThroughRemote(t *testing.T) {
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportAuto, "it-sobel")
	ctx, dev, q := openDevice(t, client)
	prog, err := ctx.CreateProgramWithBinary(dev, accel.SobelBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("sobel")
	if err != nil {
		t.Fatal(err)
	}
	const w, h = 16, 16
	img := make([]byte, w*h*2)
	for i := 0; i < w*h; i++ {
		if i%w >= w/2 {
			img[i*2] = 0xE8
			img[i*2+1] = 0x03 // 1000
		}
	}
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, len(img), img)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, len(img), nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(w))
	k.SetArg(3, int32(h))
	if _, err := q.EnqueueNDRangeKernel(k, []int{w, h}, nil, nil); err != nil {
		t.Fatal(err)
	}
	res := make([]byte, len(img))
	if _, err := q.EnqueueReadBuffer(out, true, 0, res, nil); err != nil {
		t.Fatal(err)
	}
	// The vertical edge at x = w/2 must produce a response.
	edgeIdx := (5*w + w/2) * 2
	if res[edgeIdx] == 0 && res[edgeIdx+1] == 0 {
		t.Fatal("no Sobel response at the edge")
	}
}

func TestEventStateProgression(t *testing.T) {
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-events")
	ctx, _, q := openDevice(t, client)
	buf, err := ctx.CreateBuffer(ocl.MemReadWrite, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CommandType() != ocl.CommandWriteBuffer {
		t.Fatalf("command type = %v", ev.CommandType())
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if ev.Status() != ocl.Complete {
		t.Fatalf("status after Finish = %v", ev.Status())
	}
	if err := ocl.WaitForEvents(ev); err != nil {
		t.Fatal(err)
	}
}

func TestWaitImplicitlyFlushes(t *testing.T) {
	// Waiting on an event of an unflushed task must flush the queue
	// rather than deadlock (clWaitForEvents semantics).
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-implicit-flush")
	ctx, _, q := openDevice(t, client)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 64, nil)
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait deadlocked on unflushed task")
	}
}

func TestEnqueueErrorsArriveOnEvents(t *testing.T) {
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-errs")
	ctx, dev, q := openDevice(t, client)

	// Kernel with unset arguments: the failure must arrive via the event
	// path, not as an enqueue error (asynchronous flow).
	prog, _ := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("copy")
	ev, err := q.EnqueueTask(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if werr := ev.Wait(); !errors.Is(werr, ocl.ErrInvalidKernelArgs) {
		t.Fatalf("event err = %v, want CL_INVALID_KERNEL_ARGS", werr)
	}
}

func TestTaskAbortCascade(t *testing.T) {
	// If an operation in a task fails, the remaining operations of that
	// task must fail too (in-order consistency), and a fresh task must
	// work again afterwards.
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-abort")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 64, nil)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 64, nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(9999)) // out of range: kernel will fail

	wev, _ := q.EnqueueWriteBuffer(in, false, 0, make([]byte, 64), nil)
	kev, _ := q.EnqueueTask(k, nil)
	dst := make([]byte, 64)
	rev, _ := q.EnqueueReadBuffer(out, false, 0, dst, nil)
	q.Finish()

	if wev.Err() != nil {
		t.Fatalf("write failed: %v", wev.Err())
	}
	if kev.Err() == nil {
		t.Fatal("kernel with bad size must fail")
	}
	if rev.Err() == nil {
		t.Fatal("read after failed kernel must be aborted")
	}
	if !strings.Contains(rev.Err().Error(), "aborted") {
		t.Fatalf("read err = %v, want abort cascade", rev.Err())
	}

	// Recovery: a correct task on the same queue succeeds.
	k.SetArg(2, int32(64))
	payload := bytes.Repeat([]byte{7}, 64)
	if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
		t.Fatal("queue did not recover after aborted task")
	}
}

func TestClientIsolation(t *testing.T) {
	// Two tenants share the board; handles are session-scoped so one
	// tenant cannot reach the other's resources, and concurrent tasks do
	// not corrupt each other.
	rig := newRig(t, manager.Config{})
	a := dialRig(t, rig, remote.TransportGRPC, "tenant-a")
	b := dialRig(t, rig, remote.TransportGRPC, "tenant-b")
	actx, adev, _ := openDevice(t, a)
	bctx, bdev, _ := openDevice(t, b)

	// Each concurrent stream needs its own queue and kernel: kernel
	// argument state is per-object in OpenCL, so sharing one kernel
	// across threads races by design.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		ctx, dev := actx, adev
		if i%2 == 1 {
			ctx, dev = bctx, bdev
		}
		q, err := ctx.CreateCommandQueue(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := buildLoopback(t, ctx, dev)
		wg.Add(1)
		go func(i int, ctx ocl.Context, q ocl.CommandQueue, k ocl.Kernel) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('A' + i)}, 256)
			if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
				t.Errorf("tenant round %d corrupted", i)
			}
		}(i, ctx, q, k)
	}
	wg.Wait()
	if rig.mgr.Sessions() != 2 {
		t.Fatalf("sessions = %d", rig.mgr.Sessions())
	}
}

func TestCrossSessionHandleRejected(t *testing.T) {
	// Session B guesses handle values; they must not resolve to session
	// A's objects. A buffer handle valid in A is invalid in B.
	rig := newRig(t, manager.Config{})
	a := dialRig(t, rig, remote.TransportGRPC, "tenant-a")
	dialRig(t, rig, remote.TransportGRPC, "tenant-b")
	actx, _, aq := openDevice(t, a)
	// Create several buffers in A so board IDs advance.
	var last ocl.Buffer
	for i := 0; i < 3; i++ {
		buf, err := actx.CreateBuffer(ocl.MemReadWrite, 128, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = buf
	}
	// A's own handle works.
	if _, err := aq.EnqueueWriteBuffer(last, true, 0, make([]byte, 16), nil); err != nil {
		t.Fatal(err)
	}
	// B has no buffers: any read through B's context must fail. B's
	// context was never given buffers, so we go through the raw enqueue
	// path by creating a context but using a foreign ocl.Buffer value.
	bctxIface, err := func() (ocl.Context, error) {
		platforms, _ := a.Platforms()
		devs, _ := platforms[0].Devices(ocl.DeviceTypeAll)
		return a.CreateContext(devs[:1])
	}()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := bctxIface.CreateCommandQueue(bctxIface.Devices()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EnqueueWriteBuffer(last, false, 0, make([]byte, 16), nil); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("foreign-context buffer err = %v", err)
	}
}

func TestReconfigGate(t *testing.T) {
	gateErr := fmt.Errorf("registry says no")
	rig := newRig(t, manager.Config{
		ReconfigGate: func(client, bitID string) error {
			if bitID == accel.MMBitstreamID {
				return gateErr
			}
			return nil
		},
	})
	client := dialRig(t, rig, remote.TransportGRPC, "it-gate")
	ctx, dev, _ := openDevice(t, client)

	allowed, err := ctx.CreateProgramWithBinary(dev, accel.SobelBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := allowed.Build(""); err != nil {
		t.Fatalf("allowed build: %v", err)
	}
	denied, err := ctx.CreateProgramWithBinary(dev, accel.MMBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := denied.Build(""); err == nil {
		t.Fatal("gated reconfiguration must fail")
	}
	if rig.board.ConfiguredID() != accel.SobelBitstreamID {
		t.Fatalf("board configured with %q", rig.board.ConfiguredID())
	}
}

func TestRebuildSameBitstreamIsNoOp(t *testing.T) {
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-rebuild")
	ctx, dev, _ := openDevice(t, client)
	prog, _ := ctx.CreateProgramWithBinary(dev, accel.SobelBitstream().Binary())
	for i := 0; i < 3; i++ {
		if err := prog.Build(""); err != nil {
			t.Fatal(err)
		}
	}
	if got := rig.board.Stats().Reconfigs; got != 1 {
		t.Fatalf("reconfigs = %d, want 1", got)
	}
}

func TestDisconnectReleasesResources(t *testing.T) {
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-cleanup")
	ctx, _, _ := openDevice(t, client)
	for i := 0; i < 4; i++ {
		if _, err := ctx.CreateBuffer(ocl.MemReadWrite, 1<<20, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rig.board.Allocated() != 4<<20 {
		t.Fatalf("allocated = %d", rig.board.Allocated())
	}
	client.Close()
	deadline := time.Now().Add(2 * time.Second)
	for rig.board.Allocated() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := rig.board.Allocated(); got != 0 {
		t.Fatalf("allocated after disconnect = %d, want 0", got)
	}
}

func TestManagerMetricsExported(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "fpgaX", Node: "nodeZ"})
	client := dialRig(t, rig, remote.TransportGRPC, "it-metrics")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	runCopy(t, ctx, q, k, make([]byte, 4096))

	text := rig.mgr.Metrics().Render()
	for _, want := range []string{
		`bf_connected_clients{device="fpgaX",node="nodeZ"} 1`,
		`bf_tasks_total{device="fpgaX",node="nodeZ"} 1`,
		`bf_kernel_runs_total{device="fpgaX",node="nodeZ"} 1`,
		"bf_device_busy_seconds_total",
		"bf_reconfigurations_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestMultiQueueSameClient(t *testing.T) {
	// PipeCNN-style: one client drives several queues; tasks from both
	// queues interleave at task granularity without corrupting results.
	rig := newRig(t, manager.Config{})
	client := dialRig(t, rig, remote.TransportGRPC, "it-multiq")
	ctx, dev, q1 := openDevice(t, client)
	q2, err := ctx.CreateCommandQueue(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := buildLoopback(t, ctx, dev)
	k2 := buildLoopback(t, ctx, dev)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			p := bytes.Repeat([]byte{1}, 128)
			if got := runCopy(t, ctx, q1, k, p); !bytes.Equal(got, p) {
				t.Error("q1 corrupted")
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			p := bytes.Repeat([]byte{2}, 128)
			if got := runCopy(t, ctx, q2, k2, p); !bytes.Equal(got, p) {
				t.Error("q2 corrupted")
			}
		}
	}()
	wg.Wait()
}

func TestNativeRuntimeSemantics(t *testing.T) {
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	client := native.New(board)
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	payload := bytes.Repeat([]byte("native"), 50)
	if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
		t.Fatal("native round trip corrupted")
	}
	// Marker and barrier behave.
	mev, err := q.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if err := mev.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	// Kernel with unset args fails at enqueue (native is synchronous
	// enough to catch it immediately).
	k2, _ := buildLoopback(t, ctx, dev).(ocl.Kernel)
	_ = k2
	prog, _ := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	k3, _ := prog.CreateKernel("copy")
	q2, _ := ctx.CreateCommandQueue(dev, 0)
	if _, err := q2.EnqueueTask(k3, nil); !errors.Is(err, ocl.ErrInvalidKernelArgs) {
		t.Fatalf("unset args err = %v", err)
	}
}

func TestShmFallbackWhenNodeDiffers(t *testing.T) {
	// Auto transport with a mismatched node name must fall back to the
	// RPC data path, like the paper's policy for non-co-located clients.
	rig := newRig(t, manager.Config{Node: "remote-node"})
	client, err := remote.Dial(remote.Config{
		ClientName: "it-fallback",
		Managers:   []string{rig.addr},
		Node:       "local-node",
		Transport:  remote.TransportAuto,
		ShmDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Transport(0) != model.TransportGRPC {
		t.Fatalf("transport = %v, want gRPC fallback", client.Transport(0))
	}
	// And forcing shm across nodes must fail.
	if _, err := remote.Dial(remote.Config{
		ClientName: "it-fallback2",
		Managers:   []string{rig.addr},
		Node:       "local-node",
		Transport:  remote.TransportShm,
		ShmDir:     t.TempDir(),
	}); err == nil {
		t.Fatal("forced shm across nodes must fail")
	}
}

func TestLargeTransferShmOverflowFallsBackInline(t *testing.T) {
	// A transfer larger than the shm arena must still succeed via the
	// inline path.
	rig := newRig(t, manager.Config{})
	client, err := remote.Dial(remote.Config{
		ClientName: "it-overflow",
		Managers:   []string{rig.addr},
		Transport:  remote.TransportShm,
		ShmDir:     t.TempDir(),
		ShmBytes:   1 << 16, // tiny segment
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	payload := bytes.Repeat([]byte{0xCD}, 1<<18) // 4x the segment
	if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
		t.Fatal("oversized transfer corrupted")
	}
}

func TestProfilingInfoExposed(t *testing.T) {
	// Both runtimes expose the modelled device occupancy of completed
	// commands through ocl.ProfilingEvent — the
	// clGetEventProfilingInfo analog.
	check := func(t *testing.T, ctx ocl.Context, q ocl.CommandQueue) {
		buf, err := ctx.CreateBuffer(ocl.MemReadWrite, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := q.EnqueueWriteBuffer(buf, true, 0, make([]byte, 1<<20), nil)
		if err != nil {
			t.Fatal(err)
		}
		pe, ok := ev.(ocl.ProfilingEvent)
		if !ok {
			t.Fatalf("%T does not expose profiling info", ev)
		}
		// 1 MB over the 6 GB/s worker link is ~170us of device time.
		got := pe.DeviceTime()
		if got < 100*time.Microsecond || got > 500*time.Microsecond {
			t.Fatalf("device time = %v, want ~170us", got)
		}
	}
	t.Run("remote", func(t *testing.T) {
		rig := newRig(t, manager.Config{})
		client := dialRig(t, rig, remote.TransportGRPC, "prof-remote")
		ctx, _, q := openDevice(t, client)
		check(t, ctx, q)
	})
	t.Run("native", func(t *testing.T) {
		board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
		ctx, _, q := openDevice(t, native.New(board))
		check(t, ctx, q)
	})
}

func TestManyTenantsSoak(t *testing.T) {
	// Ten tenants, each with its own queue and kernel, hammer one board
	// concurrently through both data paths; every result must be intact
	// and per-tenant counters must add up.
	rig := newRig(t, manager.Config{DeviceID: "soak"})
	const tenants = 10
	const rounds = 12
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		mode := remote.TransportGRPC
		if i%2 == 0 {
			mode = remote.TransportShm
		}
		client := dialRig(t, rig, mode, fmt.Sprintf("soak-%d", i))
		ctx, dev, q := openDevice(t, client)
		k := buildLoopback(t, ctx, dev)
		wg.Add(1)
		go func(i int, ctx ocl.Context, q ocl.CommandQueue, k ocl.Kernel) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i + 1)}, 512+i*37)
			for r := 0; r < rounds; r++ {
				if got := runCopy(t, ctx, q, k, payload); !bytes.Equal(got, payload) {
					t.Errorf("tenant %d round %d corrupted", i, r)
					return
				}
			}
		}(i, ctx, q, k)
	}
	wg.Wait()
	if got := rig.board.Stats().KernelRuns; got != tenants*rounds {
		t.Fatalf("kernel runs = %d, want %d", got, tenants*rounds)
	}
	if rig.mgr.Sessions() != tenants {
		t.Fatalf("sessions = %d", rig.mgr.Sessions())
	}
	// The task view attributes tasks to every tenant.
	byClient := map[string]int{}
	for _, tr := range rig.mgr.Traces() {
		byClient[tr.Client]++
	}
	if len(byClient) != tenants {
		t.Fatalf("traces cover %d tenants, want %d", len(byClient), tenants)
	}
}
