package manager_test

import (
	"slices"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// TestTaskHoldsBoardForModelledTime: at TimeScale 1 the worker holds the
// board for a task's modelled time — control overhead, staging copies and
// device time — and no longer. A task's hold runs from the worker's pop
// (the scheduled milestone) to its completion frame (the notify
// milestone). It may never undercut the modelled time, and the median may
// exceed it by at most 2 ms: the wake-up from the worker's one
// nanosleep (fpga.SleepUntil, ~0.1 ms) and the completion frame, since
// the real copies run inside the modelled time; the rest is room for a
// loaded machine, where the median reaches ~4.1 ms. Under -race the
// task's three real 1 MiB copies alone outlast its ~2.9 ms modelled time,
// so only the lower bound is checked there.
func TestTaskHoldsBoardForModelledTime(t *testing.T) {
	cost := model.WorkerNode()
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = 1
	rig := newBoardRig(t, fpga.NewBoard(cfg, accel.Catalog()), manager.Config{})
	client := dialRig(t, rig, remote.TransportShm, "hold")
	if client.Transport(0) != model.TransportShm {
		t.Fatalf("transport = %v, want shm", client.Transport(0))
	}
	ctx, _, q := openDevice(t, client)

	const tasks, size = 20, 1 << 20
	a, err := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	for i := 0; i < tasks; i++ {
		if _, err := q.EnqueueWriteBuffer(a, false, 0, src, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, size, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueReadBuffer(b, false, 0, dst, nil); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if dst[size-1] != src[size-1] {
		t.Fatal("write-copy-read round trip corrupted the payload")
	}

	// Hold and modelled time of every executed task, once all flights
	// have completed (each completes just after its completion frame).
	type hold struct{ held, modelled time.Duration }
	var holds []hold
	for deadline := time.Now().Add(5 * time.Second); len(holds) < tasks && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		holds = holds[:0]
		rig.mgr.Flight().Recent(func(f *flightrec.Flight) bool {
			var popped, notified time.Time
			var device time.Duration
			executed := false
			for _, ev := range f.Events {
				switch ev.Kind {
				case flightrec.KindScheduled:
					popped = ev.Time
				case flightrec.KindExecute:
					executed, device = true, ev.Device
				case flightrec.KindNotify:
					notified = ev.Time
				}
			}
			if executed && !notified.IsZero() {
				modelled := cost.TaskControlOverhead(3) + 2*cost.ShmDataOverhead(size) + device
				holds = append(holds, hold{held: notified.Sub(popped), modelled: modelled})
			}
			return true
		})
	}
	if len(holds) != tasks {
		t.Fatalf("%d executed tasks in the flight ring, want %d", len(holds), tasks)
	}
	held := make([]time.Duration, 0, tasks)
	for i, h := range holds {
		if h.held < h.modelled {
			t.Errorf("task %d held the board %v, under its modelled %v", i, h.held, h.modelled)
		}
		held = append(held, h.held)
	}
	slices.Sort(held)
	median, modelled := held[tasks/2], holds[0].modelled
	t.Logf("modelled %v per task, held median %v (min %v, max %v)", modelled, median, held[0], held[tasks-1])
	if !raceEnabled && median > modelled+2*time.Millisecond {
		t.Fatalf("median hold %v, want at most modelled %v + 2ms", median, modelled)
	}
}

// TestCreateWithInitDataHoldsModelledTime: creating a buffer with initial
// contents, private or through the content cache, returns no sooner than
// the scaled PCIe transfer of those contents.
func TestCreateWithInitDataHoldsModelledTime(t *testing.T) {
	const n = 16 << 10
	cost := model.WorkerNode()
	cost.PCIeGBps = 0.001 // a 16 KiB transfer is modelled at ~16 ms
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = 0.5
	rig := newBoardRig(t, fpga.NewBoard(cfg, accel.Catalog()), manager.Config{})
	ctx, _, _ := openDevice(t, dialRig(t, rig, remote.TransportGRPC, "init"))
	want := time.Duration(float64(cost.PCIeTransfer(n)) * cfg.TimeScale)
	for _, flags := range []ocl.MemFlags{ocl.MemReadWrite, ocl.MemReadOnly} {
		start := time.Now()
		buf, err := ctx.CreateBuffer(flags, n, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < want {
			t.Errorf("CreateBuffer(%v) with init data returned after %v, want at least %v", flags, got, want)
		}
		buf.Release()
	}
	if got := rig.board.Stats().BytesIn; got != 2*n {
		t.Fatalf("board took in %d bytes, want %d: one private and one cached upload", got, 2*n)
	}
}
