package simcluster

// Chaos tests: kill or wedge one end of the Remote Library <-> Device
// Manager pair mid-task and assert bounded-time recovery — pending events
// fail with the typed rpc.ErrManagerDown sentinel instead of hanging,
// lease expiry reclaims a wedged client's board resources, and nothing
// leaks goroutines. Faults are injected with rpc.FaultConn so the
// schedules are deterministic.

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
	"blastfunction/internal/stack"
)

// newChaosRig starts one node over real TCP, closed explicitly (not via
// t.Cleanup) so tests can assert goroutine counts after teardown.
func newChaosRig(t *testing.T, cfg manager.Config) *stack.Node {
	t.Helper()
	if cfg.Node == "" {
		cfg.Node = "chaosnode"
	}
	rig, err := stack.NewNode(stack.NodeConfig{Manager: cfg, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// dialChaos connects a Remote Library client through a FaultConn.
func dialChaos(t *testing.T, rig *stack.Node) (*remote.Client, *rpc.FaultConn) {
	t.Helper()
	var fc *rpc.FaultConn
	client, err := remote.Dial(remote.Config{
		ClientName:  "chaos-client",
		Managers:    []string{rig.Addr},
		Transport:   remote.TransportGRPC,
		CallTimeout: 2 * time.Second,
		DialConn: func(addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc = rpc.InjectFaults(raw, rpc.Faults{})
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, fc
}

// openLoopback builds context, queue and the loopback copy kernel.
func openLoopback(t *testing.T, client ocl.Client) (ocl.Context, ocl.CommandQueue, ocl.Kernel) {
	t.Helper()
	platforms, err := client.Platforms()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := platforms[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil || len(devs) == 0 {
		t.Fatalf("devices: %v (%d)", err, len(devs))
	}
	ctx, err := client.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
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
	return ctx, q, k
}

// goroutineWatch asserts leak-freedom through the same runtime collector
// the production binaries export as bf_runtime_goroutines — the series
// the GoroutineLeak alert rule watches — instead of hand-rolled
// runtime.NumGoroutine polling.
type goroutineWatch struct {
	col  *obs.RuntimeCollector
	base int
}

// watchGoroutines snapshots the current goroutine count as the baseline.
func watchGoroutines() *goroutineWatch {
	col := obs.NewRuntimeCollector(metrics.NewRegistry(), metrics.Labels{"component": "chaos"})
	return &goroutineWatch{col: col, base: col.Goroutines()}
}

// waitDrained asserts the collector's goroutine gauge drains back to
// around the baseline, catching leaked readers, workers, sweepers or
// heartbeat loops.
func (g *goroutineWatch) waitDrained(t *testing.T, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.col.SampleOnce()
		if g.col.Goroutines() <= g.base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d still running (baseline %d, slack %d)\n%s",
		g.col.Goroutines(), g.base, slack, buf[:n])
}

// TestChaosManagerKilledMidTaskFailsPendingEvents wedges the uplink so a
// flushed task never reaches the manager, then kills the manager: every
// pending event must fail within a bounded time and match
// rpc.ErrManagerDown, and teardown must not leak goroutines.
func TestChaosManagerKilledMidTaskFailsPendingEvents(t *testing.T) {
	gw := watchGoroutines()
	rig := newChaosRig(t, manager.Config{DeviceID: "chaos-A"})
	client, fc := dialChaos(t, rig)
	ctx, q, k := openLoopback(t, client)

	payload := []byte("chaos payload")
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, arg := range []any{in, out, int32(len(payload))} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge the uplink: from here on, enqueues and the flush vanish on the
	// wire, so the task stays in flight from the client's point of view.
	fc.DropWrites(true)
	evW, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	evK, err := q.EnqueueTask(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	evR, err := q.EnqueueReadBuffer(out, false, 0, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	finishErr := make(chan error, 1)
	go func() { finishErr <- q.Finish() }()
	time.Sleep(50 * time.Millisecond) // let Finish block on the events

	killed := time.Now()
	rig.Close() // the manager dies with the task in flight

	select {
	case err := <-finishErr:
		if !errors.Is(err, rpc.ErrManagerDown) {
			t.Fatalf("Finish error = %v, want rpc.ErrManagerDown", err)
		}
		if !errors.Is(err, ocl.ErrDeviceNotAvailable) {
			t.Fatalf("Finish error = %v, want CL_DEVICE_NOT_AVAILABLE status", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending task did not fail within 5s of the manager dying")
	}
	if elapsed := time.Since(killed); elapsed > 5*time.Second {
		t.Fatalf("recovery took %v", elapsed)
	}
	for _, ev := range []ocl.Event{evW, evK, evR} {
		if err := ev.Wait(); !errors.Is(err, rpc.ErrManagerDown) {
			t.Fatalf("event error = %v, want rpc.ErrManagerDown", err)
		}
	}

	client.Close()
	gw.waitDrained(t, 3)
}

// TestChaosLeaseExpiryReclaimsWedgedClient wedges a client's uplink (TCP
// stays open, heartbeats stop arriving) and asserts the manager's lease
// sweeper reclaims the session within a bounded time: board buffers are
// freed, the session is gone, and the deferred-ack operation receives a
// terminal OpFailed while the downlink can still carry it.
func TestChaosLeaseExpiryReclaimsWedgedClient(t *testing.T) {
	gw := watchGoroutines()
	lease := 300 * time.Millisecond
	rig := newChaosRig(t, manager.Config{DeviceID: "chaos-B", LeaseDuration: lease})
	client, fc := dialChaos(t, rig)
	ctx, q, _ := openLoopback(t, client)

	payload := make([]byte, 4096)
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rig.Board.Allocated() == 0 {
		t.Fatal("board reports no allocation after CreateBuffer")
	}
	// Enqueue without flushing: the manager records the op with its
	// acknowledgement deferred to flush time (batch protocol), which is
	// exactly the state expiry must clean up.
	ev, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the enqueue reach the manager
	if rig.Manager.Sessions() != 1 {
		t.Fatalf("sessions = %d before wedge", rig.Manager.Sessions())
	}

	fc.DropWrites(true) // wedged: heartbeats stop, connection stays open

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rig.Manager.Sessions() == 0 && rig.Board.Allocated() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := rig.Manager.Sessions(); n != 0 {
		t.Fatalf("sessions = %d, lease never expired", n)
	}
	if alloc := rig.Board.Allocated(); alloc != 0 {
		t.Fatalf("board still holds %d bytes after lease expiry", alloc)
	}

	// The deferred-ack op was terminated with OpFailed over the live
	// downlink before the manager closed the connection.
	evErr := make(chan error, 1)
	go func() { evErr <- ev.Wait() }()
	select {
	case err := <-evErr:
		if err == nil {
			t.Fatal("wedged op completed successfully")
		}
		if !strings.Contains(err.Error(), "lease expired") {
			t.Fatalf("event error = %v, want the lease-expiry OpFailed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wedged op never terminated")
	}

	client.Close()
	rig.Close()
	gw.waitDrained(t, 3)
}
