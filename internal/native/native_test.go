package native

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
)

func newBoard() *fpga.Board {
	return fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
}

func open(t *testing.T, c *Client) (ocl.Context, ocl.Device, ocl.CommandQueue) {
	t.Helper()
	ps, err := c.Platforms()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := ps[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := c.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, devs[0], q
}

func TestDiscovery(t *testing.T) {
	c := New(newBoard(), newBoard())
	ps, err := c.Platforms()
	if err != nil || len(ps) != 1 {
		t.Fatalf("platforms = %v, %v", ps, err)
	}
	devs, err := ps[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil || len(devs) != 2 {
		t.Fatalf("devices = %v, %v", devs, err)
	}
	if devs[0].Vendor() != "Intel(R) Corporation" {
		t.Fatalf("vendor = %q", devs[0].Vendor())
	}
	if _, err := ps[0].Devices(ocl.DeviceTypeCPU); !errors.Is(err, ocl.ErrDeviceNotFound) {
		t.Fatalf("CPU query err = %v", err)
	}
	c.Close()
	if _, err := c.Platforms(); err == nil {
		t.Fatal("closed client must fail")
	}
}

func TestContextRules(t *testing.T) {
	c := New(newBoard(), newBoard())
	ps, _ := c.Platforms()
	devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
	if _, err := c.CreateContext(devs); !errors.Is(err, ocl.ErrInvalidDevice) {
		t.Fatalf("multi-device context err = %v", err)
	}
	if _, err := c.CreateContext(nil); err == nil {
		t.Fatal("empty context must fail")
	}
	ctx, err := c.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	// A queue for the other board's device must be rejected.
	if _, err := ctx.CreateCommandQueue(devs[1], 0); !errors.Is(err, ocl.ErrInvalidDevice) {
		t.Fatalf("cross-board queue err = %v", err)
	}
}

func TestInOrderExecutionAcrossOps(t *testing.T) {
	c := New(newBoard())
	ctx, dev, q := open(t, c)
	prog, err := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("copy")
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 64, nil)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 64, nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(64))
	// Queue many generations; in-order execution means the final read
	// observes the last write.
	var last []byte
	dst := make([]byte, 64)
	for g := byte(0); g < 10; g++ {
		last = bytes.Repeat([]byte{g}, 64)
		if _, err := q.EnqueueWriteBuffer(in, false, 0, last, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueTask(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.EnqueueReadBuffer(out, true, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, last) {
		t.Fatal("in-order execution violated")
	}
}

func TestKernelSnapshotSemantics(t *testing.T) {
	// Changing an argument after enqueue must not affect the in-flight
	// launch (clSetKernelArg snapshot semantics).
	c := New(newBoard())
	ctx, dev, q := open(t, c)
	prog, _ := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	prog.Build("")
	k, _ := prog.CreateKernel("copy")
	in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 64, []byte(bytes.Repeat([]byte{7}, 64)))
	out1, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 64, nil)
	out2, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 64, nil)
	k.SetArg(0, in)
	k.SetArg(1, out1)
	k.SetArg(2, int32(64))
	ev, err := q.EnqueueTask(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.SetArg(1, out2) // must not redirect the in-flight launch
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if _, err := q.EnqueueReadBuffer(out1, true, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 {
		t.Fatal("snapshot semantics violated: launch used the later argument")
	}
}

func TestReleaseSemantics(t *testing.T) {
	c := New(newBoard())
	ctx, _, q := open(t, c)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 1<<10, nil)
	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, make([]byte, 16), nil); err == nil {
		t.Fatal("write to released buffer must fail")
	}
	// Release after a failed command reports that command's error
	// (stricter than clFinish, which swallows it).
	if err := q.Release(); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("release after failure err = %v", err)
	}
	if err := q.Release(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := q.EnqueueMarker(); !errors.Is(err, ocl.ErrInvalidCommandQueue) {
		t.Fatalf("enqueue on released queue err = %v", err)
	}
	// A clean queue releases without error.
	q2, err := ctx.CreateCommandQueue(ctx.Devices()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentQueues(t *testing.T) {
	c := New(newBoard())
	ctx, dev, _ := open(t, c)
	prog, _ := ctx.CreateProgramWithBinary(dev, accel.LoopbackBitstream().Binary())
	prog.Build("")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		q, err := ctx.CreateCommandQueue(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := prog.CreateKernel("copy")
		in, _ := ctx.CreateBuffer(ocl.MemReadOnly, 128, nil)
		out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, 128, nil)
		k.SetArg(0, in)
		k.SetArg(1, out)
		k.SetArg(2, int32(128))
		wg.Add(1)
		go func(w int, q ocl.CommandQueue, in, out ocl.Buffer, k ocl.Kernel) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 128)
			dst := make([]byte, 128)
			for i := 0; i < 10; i++ {
				q.EnqueueWriteBuffer(in, false, 0, payload, nil)
				q.EnqueueTask(k, nil)
				if _, err := q.EnqueueReadBuffer(out, true, 0, dst, nil); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !bytes.Equal(dst, payload) {
					t.Errorf("worker %d corrupted", w)
					return
				}
			}
		}(w, q, in, out, k)
	}
	wg.Wait()
}

func TestContextReleaseDrainsQueues(t *testing.T) {
	c := New(newBoard())
	ctx, _, q := open(t, c)
	buf, _ := ctx.CreateBuffer(ocl.MemReadWrite, 1<<16, nil)
	for i := 0; i < 8; i++ {
		if _, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 1<<16), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCallsHoldModelledTime: the native baseline holds the board
// for each operation's scaled modelled time, so a blocking write, and a
// buffer created with host data, take at least the scaled PCIe transfer.
// The board does not sleep data operations, so without the runtime's hold
// the native baseline would run in no time at all.
func TestBlockingCallsHoldModelledTime(t *testing.T) {
	const n = 16 << 10
	cost := model.WorkerNode()
	cost.PCIeGBps = 0.001 // a 16 KiB transfer is modelled at ~16 ms
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = 0.5
	ctx, _, q := open(t, New(fpga.NewBoard(cfg, accel.Catalog())))
	want := time.Duration(float64(cost.PCIeTransfer(n)) * cfg.TimeScale)

	start := time.Now()
	buf, err := ctx.CreateBuffer(ocl.MemReadWrite, n, make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < want {
		t.Fatalf("CreateBuffer with host data returned after %v, want at least %v", got, want)
	}
	start = time.Now()
	ev, err := q.EnqueueWriteBuffer(buf, true, 0, make([]byte, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < want {
		t.Fatalf("blocking write returned after %v, want at least %v", got, want)
	}
	if got := ev.(ocl.ProfilingEvent).DeviceTime(); got != cost.PCIeTransfer(n) {
		t.Fatalf("device time %v, want the modelled %v", got, cost.PCIeTransfer(n))
	}
}
