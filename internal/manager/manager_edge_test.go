package manager_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/wire"
)

// rawConn is a bare RPC client for protocol-level tests. Its handler
// copies every notification payload onto notes, which closes when the
// connection is lost, and lands nothing, so each payload arrives whole.
// notes holds more frames than any test reads; a full one would stall the
// read loop, responses included.
type rawConn struct {
	*rpc.Client
	notes chan []byte
}

func (c *rawConn) Land(uint64, int) []byte { return nil }
func (c *rawConn) Notify(p []byte)         { c.notes <- append([]byte(nil), p...) }
func (c *rawConn) Lost()                   { close(c.notes) }

// rawClient dials the rig with a bare RPC client.
func rawClient(t *testing.T, rig *testRig) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawConn{notes: make(chan []byte, 1024)}
	c.Client = rpc.NewClient(conn, c)
	t.Cleanup(func() { c.Close() })
	return c
}

func hello(t *testing.T, c *rawConn, name string, version uint32) ([]byte, error) {
	t.Helper()
	e := wire.NewEncoder(32)
	(&wire.HelloRequest{ClientName: name, ProtoVersion: version}).Encode(e)
	return c.Call(wire.MethodHello, e.Bytes())
}

// Hello is an equality guard: any revision but the manager's own is
// refused and leaves no session behind.
func TestProtocolVersionMismatchRejected(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	for _, v := range []uint32{0, 1, wire.ProtoVersion - 1, wire.ProtoVersion + 1} {
		if _, err := hello(t, c, "skewed-client", v); !errors.Is(err, ocl.ErrInvalidValue) {
			t.Errorf("version %d: err = %v, want ErrInvalidValue", v, err)
		}
		if n := rig.mgr.Sessions(); n != 0 {
			t.Fatalf("version %d left %d sessions", v, n)
		}
	}
	// The connection itself survives; a correct Hello then works.
	if _, err := hello(t, c, "fixed-client", wire.ProtoVersion); err != nil {
		t.Fatalf("corrected hello: %v", err)
	}
}

func TestRequestsBeforeHelloRejected(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	for _, m := range []wire.Method{
		wire.MethodDeviceInfo, wire.MethodCreateContext, wire.MethodCreateBuffer,
	} {
		if _, err := c.Call(m, nil); !errors.Is(err, ocl.ErrInvalidOperation) {
			t.Fatalf("%v before Hello err = %v", m, err)
		}
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	if _, err := hello(t, c, "x", wire.ProtoVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(wire.Method(9999), nil); !errors.Is(err, ocl.ErrInvalidOperation) {
		t.Fatalf("unknown method err = %v", err)
	}
}

func TestMalformedBodiesDoNotCrashManager(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	if _, err := hello(t, c, "fuzz", wire.ProtoVersion); err != nil {
		t.Fatal(err)
	}
	garbage := [][]byte{nil, {0x01}, bytes.Repeat([]byte{0xFF}, 64), []byte("not a message")}
	// MethodCreateContext is excluded: it takes no body, so any payload
	// legitimately succeeds.
	methods := []wire.Method{
		wire.MethodReleaseContext, wire.MethodCreateQueue,
		wire.MethodReleaseQueue, wire.MethodCreateBuffer, wire.MethodReleaseBuffer,
		wire.MethodCreateProgram, wire.MethodBuildProgram, wire.MethodCreateKernel,
		wire.MethodReleaseKernel, wire.MethodSetKernelArg, wire.MethodSetupShm,
	}
	for _, m := range methods {
		for _, g := range garbage {
			// Some short bodies decode to zero-valued requests, which fail
			// handle-validation instead; either way the call must return an
			// error response, never crash or hang.
			if _, err := c.Call(m, g); err == nil {
				t.Fatalf("method %v accepted garbage body %v", m, g)
			}
		}
	}
	// The session is still functional afterwards.
	if _, err := c.Call(wire.MethodCreateContext, nil); err != nil {
		t.Fatalf("manager unusable after garbage: %v", err)
	}
}

func TestCommandQueueGarbageFailsViaEvents(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	if _, err := hello(t, c, "fuzz2", wire.ProtoVersion); err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget garbage on the command-queue methods: no unary
	// response exists, so nothing to assert beyond the manager staying
	// alive and responsive.
	for _, m := range []wire.Method{wire.MethodEnqueueWrite, wire.MethodEnqueueRead, wire.MethodEnqueueKernel, wire.MethodFlush} {
		if err := c.Send(m, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(wire.MethodDeviceInfo, nil); err != nil {
		t.Fatalf("manager unresponsive after command-queue garbage: %v", err)
	}
}

func TestSmallQueueCapacityBackpressure(t *testing.T) {
	// A tiny central queue with a slow board: submissions backpressure
	// but every task still completes.
	board := fpga.NewBoard(fpga.Config{
		Name:      "slow",
		Vendor:    "v",
		MemBytes:  1 << 20,
		Cost:      model.WorkerNode(),
		TimeScale: 0.001,
	}, accel.Catalog())
	mgr := manager.New(manager.Config{Node: "n", DeviceID: "d", QueueCapacity: 2}, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })

	rig := &testRig{mgr: mgr, srv: srv, addr: addr, board: board}
	client := dialRig(t, rig, 1 /* TransportGRPC */, "backpressure")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 256, nil)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 256, nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(256))
	var events []ocl.Event
	for i := 0; i < 16; i++ {
		ev, err := q.EnqueueTask(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if err := q.Flush(); err != nil { // one task per flush: 16 tasks
			t.Fatal(err)
		}
	}
	if err := ocl.WaitForEvents(events...); err != nil {
		t.Fatal(err)
	}
	if got := board.Stats().KernelRuns; got != 16 {
		t.Fatalf("kernel runs = %d", got)
	}
}

func TestTaskTraceAndHistogram(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "traced"})
	client := dialRig(t, rig, 1, "trace-tenant")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 64, nil)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 64, nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(64))
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueWriteBuffer(in, false, 0, make([]byte, 64), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueTask(k, nil); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	// The histogram counted the tasks before their completion frames left.
	text := rig.mgr.Metrics().Render()
	if !strings.Contains(text, `bf_task_device_seconds_count{device="traced",node="testnode"} 3`) {
		t.Fatalf("task histogram missing:\n%s", text)
	}
	traces := waitTraces(t, rig.mgr, func(trs []manager.TaskTrace) bool { return len(trs) == 3 })
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(traces))
	}
	for i, tr := range traces {
		if tr.Client != "trace-tenant" || tr.Ops != 2 || tr.Failed {
			t.Fatalf("trace %d = %+v", i, tr)
		}
		if tr.DeviceTime <= 0 {
			t.Fatalf("trace %d device time = %v", i, tr.DeviceTime)
		}
		if i > 0 && traces[i].Seq <= traces[i-1].Seq {
			t.Fatalf("trace %d out of completion order", i)
		}
	}
	// The trace HTTP endpoint serves JSON.
	srv := httptest.NewServer(rig.mgr.TraceHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var got []manager.TaskTrace
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got) != 3 {
		t.Fatalf("endpoint traces = %d", len(got))
	}
}

func TestTraceRingOverwritesOldest(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "ring"})
	client := dialRig(t, rig, 1, "ring-tenant")
	ctx, _, q := openDevice(t, client)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 16, nil)
	// 600 tasks against the 512-task view: the 88 oldest carry two
	// operations and the 512 newest one, so the view holds exactly the
	// newest tasks when every trace in it has one operation.
	for i := 0; i < 600; i++ {
		writes := 1
		if i < 600-512 {
			writes = 2
		}
		for j := 0; j < writes; j++ {
			if _, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 16), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	traces := waitTraces(t, rig.mgr, func(trs []manager.TaskTrace) bool {
		return len(trs) == 512 && trs[0].Ops == 1
	})
	if len(traces) != 512 {
		t.Fatalf("view holds %d tasks, want 512", len(traces))
	}
	for i, tr := range traces {
		if tr.Ops != 1 {
			t.Fatalf("trace %d has %d ops: an older task is still in view", i, tr.Ops)
		}
		if i > 0 && tr.Seq <= traces[i-1].Seq {
			t.Fatalf("trace %d out of completion order", i)
		}
	}
}

// waitTraces polls the task view until done accepts it. A task's flight
// completes just after its completion frame is written, so a client back
// from Finish can be a moment ahead of its TaskTrace.
func waitTraces(t *testing.T, mgr *manager.Manager, done func([]manager.TaskTrace) bool) []manager.TaskTrace {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if traces := mgr.Traces(); done(traces) || time.Now().After(deadline) {
			return traces
		}
	}
}

// TestKernelPanicFailsOnlyItsTask: two tenants share one board, and one
// tenant's kernel panics on a poisoned argument. Only that tenant's event
// fails, with ErrOutOfResources; the other tenant's task completes and the
// manager keeps serving.
func TestKernelPanicFailsOnlyItsTask(t *testing.T) {
	const poison = 13
	bs := &fpga.Bitstream{ID: "poison", Accelerator: "poison", Kernels: []fpga.KernelSpec{{
		Name: "k", NumArgs: 1,
		Run: func(_ fpga.MemAccess, args []ocl.Arg, _ []int) error {
			if args[0].IntValue() == poison {
				panic("poisoned argument")
			}
			return nil
		},
	}}}
	catalog := accel.Catalog()
	catalog.Add(bs)
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), catalog)
	mgr := manager.New(manager.Config{Node: "n", DeviceID: "d"}, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	rig := &testRig{mgr: mgr, srv: srv, addr: addr, board: board}

	open := func(name string, arg int32) (ocl.CommandQueue, ocl.Kernel) {
		ctx, dev, q := openDevice(t, dialRig(t, rig, 1 /* TransportGRPC */, name))
		prog, err := ctx.CreateProgramWithBinary(dev, bs.Binary())
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(""); err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("k")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArg(0, arg); err != nil {
			t.Fatal(err)
		}
		return q, k
	}
	badQ, badK := open("bad", poison)
	goodQ, goodK := open("good", 1)
	badEv, err := badQ.EnqueueTask(badK, nil)
	if err != nil {
		t.Fatal(err)
	}
	goodEv, err := goodQ.EnqueueTask(goodK, nil)
	if err != nil {
		t.Fatal(err)
	}
	badQ.Flush()
	goodQ.Flush()
	if err := badEv.Wait(); !errors.Is(err, ocl.ErrOutOfResources) {
		t.Fatalf("poisoned kernel event err = %v, want ErrOutOfResources", err)
	}
	if err := goodEv.Wait(); err != nil {
		t.Fatalf("neighbour's task: %v", err)
	}
	if _, err := goodQ.EnqueueTask(goodK, nil); err != nil {
		t.Fatal(err)
	}
	if err := goodQ.Finish(); err != nil {
		t.Fatalf("task after the panic: %v", err)
	}
	if text := mgr.Metrics().Render(); !strings.Contains(text, `bf_tenant_task_failures_total{device="d",node="n",tenant="bad"} 1`) {
		t.Fatalf("failed task not counted against its tenant:\n%s", text)
	}
}
