package remote

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
)

// writeCounter counts the Writes the library makes on its connection.
// Embedding the interface hides *net.TCPConn's writev, so a vectored frame
// counts one Write per piece.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// loopbackTask is the benchmark's function on one connection: a loopback
// kernel wired to an input and an output buffer of size bytes.
type loopbackTask struct {
	q       ocl.CommandQueue
	k       ocl.Kernel
	in, out ocl.Buffer
}

func newLoopbackTask(t *testing.T, c *Client, size int) *loopbackTask {
	t.Helper()
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	ctx, err := c.CreateContext(devs[:1])
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
	lt := &loopbackTask{}
	if lt.k, err = prog.CreateKernel("copy"); err != nil {
		t.Fatal(err)
	}
	if lt.q, err = ctx.CreateCommandQueue(devs[0], 0); err != nil {
		t.Fatal(err)
	}
	if lt.in, err = ctx.CreateBuffer(ocl.MemReadWrite, size, nil); err != nil {
		t.Fatal(err)
	}
	if lt.out, err = ctx.CreateBuffer(ocl.MemReadWrite, size, nil); err != nil {
		t.Fatal(err)
	}
	for i, arg := range []any{lt.in, lt.out, int32(size)} {
		if err := lt.k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}
	return lt
}

// enqueue issues the three operations of one task: write, kernel, read.
func (lt *loopbackTask) enqueue(t testing.TB, src, dst []byte) (w, k, r ocl.Event) {
	var err error
	if w, err = lt.q.EnqueueWriteBuffer(lt.in, false, 0, src, nil); err != nil {
		t.Fatal(err)
	}
	if k, err = lt.q.EnqueueTask(lt.k, nil); err != nil {
		t.Fatal(err)
	}
	if r, err = lt.q.EnqueueReadBuffer(lt.out, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	return w, k, r
}

func dialCounted(t *testing.T, r *rig, transport TransportMode) (*Client, *writeCounter) {
	t.Helper()
	var wc *writeCounter
	c, err := Dial(Config{ClientName: t.Name(), Managers: []string{r.addr}, Transport: transport,
		ShmDir: t.TempDir(), ShmBytes: 4 << 20, Flight: newFlight(t),
		DialConn: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			wc = &writeCounter{Conn: conn}
			return wc, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, wc
}

// A task's small operation frames wait for its flush: a 3-op shm task is
// one Write on the connection. A large frame still leaves when enqueued,
// as its header and its payload: with the flush, three Writes here, two
// system calls on a *net.TCPConn, where the two pieces are one writev.
func TestTaskIsOneWrite(t *testing.T) {
	r := newRig(t)
	for _, tc := range []struct {
		name      string
		transport TransportMode
		size      int
		ops       int
		writes    int64
	}{
		{"shm 3-op", TransportShm, 4 << 10, 3, 1},
		{"inline 1 MiB write", TransportGRPC, 1 << 20, 1, 3},
	} {
		c, wc := dialCounted(t, r, tc.transport)
		lt := newLoopbackTask(t, c, tc.size)
		src, dst := bytes.Repeat([]byte{7}, tc.size), make([]byte, tc.size)
		before := wc.writes.Load()
		if tc.ops == 3 {
			lt.enqueue(t, src, dst)
		} else if _, err := lt.q.EnqueueWriteBuffer(lt.in, false, 0, src, nil); err != nil {
			t.Fatal(err)
		}
		if err := lt.q.Finish(); err != nil {
			t.Fatal(err)
		}
		if n := wc.writes.Load() - before; n != tc.writes {
			t.Errorf("%s task: %d client writes, want %d", tc.name, n, tc.writes)
		}
		if tc.ops == 3 && !bytes.Equal(dst, src) {
			t.Errorf("%s task: read back %v..., want %v...", tc.name, dst[:4], src[:4])
		}
	}
}

// A delayed kernel frame still reaches the manager before a SetKernelArg
// issued after it, so the launch runs with the arguments it was enqueued
// with.
func TestKernelKeepsArgsOfItsEnqueue(t *testing.T) {
	r := newRig(t)
	c, _ := dialCounted(t, r, TransportShm)
	lt := newLoopbackTask(t, c, 64)
	ctx := lt.in.(*buffer).ctx
	other, err := ctx.CreateBuffer(ocl.MemReadWrite, 64, bytes.Repeat([]byte{2}, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.q.EnqueueWriteBuffer(lt.in, true, 0, bytes.Repeat([]byte{1}, 64), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.q.EnqueueTask(lt.k, nil); err != nil {
		t.Fatal(err)
	}
	if err := lt.k.SetArg(0, other); err != nil {
		t.Fatal(err)
	}
	if err := lt.q.Finish(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if _, err := lt.q.EnqueueReadBuffer(lt.out, true, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 {
		t.Fatalf("kernel copied %d..., want the 1s of the buffer bound at enqueue", dst[0])
	}
}

// Frames waiting for the flush when the connection dies must not leave
// their events hanging: the flush's failed write fails the client, and
// every event of the task fails as a lost manager.
func TestDelayedFramesFailOnConnectionLoss(t *testing.T) {
	r := newRig(t)
	goroutines := runtime.NumGoroutine()
	var fc *rpc.FaultConn
	c, err := Dial(Config{ClientName: "delayed-loss", Managers: []string{r.addr}, Transport: TransportShm,
		ShmDir: t.TempDir(), ShmBytes: 1 << 20, Flight: newFlight(t),
		DialConn: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			fc = rpc.InjectFaults(conn)
			return fc, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	lt := newLoopbackTask(t, c, 64)
	w, k, rd := lt.enqueue(t, make([]byte, 64), make([]byte, 64))
	fc.CloseMidFrame()
	if err := lt.q.Flush(); !errors.Is(err, rpc.ErrManagerDown) {
		t.Fatalf("flush over a dead connection: %v, want ErrManagerDown", err)
	}
	for i, ev := range []ocl.Event{w, k, rd} {
		done := make(chan error, 1)
		go func() { done <- ev.Wait() }()
		select {
		case err := <-done:
			if !errors.Is(err, rpc.ErrManagerDown) {
				t.Errorf("event %d: %v, want ErrManagerDown", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d still waiting 5s after the connection died", i)
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after Close, %d before Dial", n, goroutines)
	}
}

// Finish walks the queue's events in place: concurrent Finishes on one
// queue, each racing the other's enqueues, must each return once their own
// work is done and leave no event behind.
func TestConcurrentFinish(t *testing.T) {
	r := newRig(t)
	c, _ := dialCounted(t, r, TransportShm)
	lt := newLoopbackTask(t, c, 64)
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := lt.q.EnqueueWriteBuffer(lt.in, false, 0, make([]byte, 64), nil); err != nil {
					done <- err
					return
				}
				if err := lt.q.Finish(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent Finish hung")
		}
	}
	if err := lt.q.Finish(); err != nil {
		t.Fatal(err)
	}
	if q := lt.q.(*commandQueue); len(q.events) != 0 || q.finishing != 0 {
		t.Fatalf("after the last Finish: %d events kept, %d Finishes walking", len(q.events), q.finishing)
	}
}

// Finish's prune and Flush's reset keep their arrays but not the events in
// them: a completed event left in a dead tail would keep its read buffer
// reachable until a later task overwrote the slot.
func TestFinishLeavesNoEventInDeadTails(t *testing.T) {
	r := newRig(t)
	c, _ := dialCounted(t, r, TransportShm)
	lt := newLoopbackTask(t, c, 64)
	lt.enqueue(t, make([]byte, 64), make([]byte, 64))
	if err := lt.q.Finish(); err != nil {
		t.Fatal(err)
	}
	q := lt.q.(*commandQueue)
	q.mu.Lock()
	defer q.mu.Unlock()
	for name, evs := range map[string][]*remoteEvent{"events": q.events, "unflushed": q.unflushed} {
		for i, ev := range evs[:cap(evs)] {
			if ev != nil {
				t.Errorf("%s[%d] of %d still holds a %v event", name, i, len(evs), ev.CommandType())
			}
		}
	}
}

// A connection lost under flushed multi-op tasks ends each task's flight
// once, from its final op when that op is among the lost: only it carries
// the milestones batched on the queue. With the board slow enough that
// no task finishes first, every flight keeps its wire-send upload.
func TestConnectionLossKeepsTaskMilestones(t *testing.T) {
	cost := model.WorkerNode()
	cost.PCIeGBps = 0.001 // a 16 KiB transfer holds the board ~16 ms
	cost.ReconfigureTime = time.Millisecond
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = 1
	r := newRigOn(t, cfg)
	flight := newFlight(t)
	c, err := Dial(Config{ClientName: t.Name(), Managers: []string{r.addr}, Transport: TransportGRPC, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const tasks, size = 24, 16 << 10
	lt := newLoopbackTask(t, c, size)
	src, dst := make([]byte, size), make([]byte, size)
	var last []ocl.Event
	for i := 0; i < tasks; i++ {
		_, _, rd := lt.enqueue(t, src, dst)
		if err := lt.q.Flush(); err != nil {
			t.Fatal(err)
		}
		last = append(last, rd)
	}
	r.srv.Close()
	for i, ev := range last {
		if err := ev.Wait(); !errors.Is(err, rpc.ErrManagerDown) {
			t.Fatalf("task %d: %v, want ErrManagerDown", i, err)
		}
	}
	n := 0
	for _, f := range flight.Snapshot().Flights {
		count := map[flightrec.Kind]int{}
		for _, ev := range f.Events {
			count[ev.Kind] += max(ev.Count, 1)
		}
		if count[flightrec.KindComplete] == 0 {
			continue // the connection's own flight
		}
		n++
		for _, ev := range f.Events {
			if ev.Kind == flightrec.KindFailure && ev.Detail != "connection to manager lost" {
				t.Errorf("flight %s: failure %q", f.Trace, ev.Detail)
			}
		}
		if count[flightrec.KindUpload] != 1 || count[flightrec.KindFailure] != 1 || count[flightrec.KindComplete] != 1 {
			t.Errorf("flight %s: %d uploads, %d failures, %d completes, want one each", f.Trace,
				count[flightrec.KindUpload], count[flightrec.KindFailure], count[flightrec.KindComplete])
		}
	}
	if n != tasks {
		t.Fatalf("%d task flights, want %d", n, tasks)
	}
}

// A sampled task's trace ID keys its flight in the library and on the
// manager, for a task that completes and for one that fails: the library
// flight ends once with the client-observed total, the manager's carries
// the task's op milestones, and the two agree on the failure.
func TestSampledTaskFlightsShareTrace(t *testing.T) {
	r := newRig(t)
	flight := newFlight(t)
	c, err := Dial(Config{ClientName: t.Name(), Managers: []string{r.addr}, Transport: TransportGRPC,
		Flight: flight, Tracer: obs.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 4 << 10
	lt := newLoopbackTask(t, c, size)
	src, dst := make([]byte, size), make([]byte, size)
	lt.enqueue(t, src, dst)
	if err := lt.q.Finish(); err != nil {
		t.Fatal(err)
	}
	// A kernel told to copy past its buffers fails on the board, and the
	// task's final op, the read behind it, fails with it.
	if err := lt.k.SetArg(2, int32(2*size)); err != nil {
		t.Fatal(err)
	}
	lt.enqueue(t, src, dst)
	if err := lt.q.Finish(); err == nil {
		t.Fatal("an out-of-range read finished without error")
	}

	sampled := 0
	for _, f := range flight.Snapshot().Flights {
		if f.Synthetic {
			continue // the connection's session flight
		}
		sampled++
		last := f.Events[len(f.Events)-1]
		if last.Kind != flightrec.KindComplete || last.Dur <= 0 {
			t.Fatalf("library flight %s ends with %+v", f.Trace, last)
		}
		var mf flightrec.Flight
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			var ok bool
			if mf, ok = r.mgr.Flight().FlightFor(f.Trace); ok && mf.Events[len(mf.Events)-1].Kind == flightrec.KindComplete {
				break
			}
		}
		if len(mf.Events) == 0 {
			t.Fatalf("the manager holds no flight for trace %s", f.Trace)
		}
		ops := 0
		for _, ev := range mf.Events {
			if ev.Kind == flightrec.KindOp {
				ops++
			}
		}
		// The failing kernel ran, the read behind it was aborted.
		wantOps, failed := 3, last.Detail == "failed"
		if failed {
			wantOps = 2
		}
		mlast := mf.Events[len(mf.Events)-1]
		if ops != wantOps || mlast.Kind != flightrec.KindComplete || (mlast.Detail == "failed") != failed {
			t.Errorf("manager flight %s: %d op milestones, ends %+v; library failed=%v", f.Trace, ops, mlast, failed)
		}
	}
	if sampled != 2 {
		t.Fatalf("%d sampled task flights in the library, want 2", sampled)
	}
}
