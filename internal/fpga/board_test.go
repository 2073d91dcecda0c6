package fpga

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
)

// testBitstream returns a catalog holding one bitstream with an "echo"
// kernel (copies in->out, 3 args) and a "tick" kernel (timing only).
func testCatalog() *Catalog {
	echo := func(mem MemAccess, args []ocl.Arg, _ []int) error {
		in, err := mem.Bytes(args[0].BufferID)
		if err != nil {
			return err
		}
		out, err := mem.Bytes(args[1].BufferID)
		if err != nil {
			return err
		}
		n := int(args[2].IntValue())
		copy(out[:n], in[:n])
		return nil
	}
	return NewCatalog(&Bitstream{
		ID:          "test-echo",
		Accelerator: "echo",
		Vendor:      "TestVendor",
		Kernels: []KernelSpec{
			{Name: "echo", NumArgs: 3, Run: echo,
				Model: func(args []ocl.Arg, _ []int) time.Duration {
					return time.Duration(args[2].IntValue()) * time.Microsecond
				}},
			{Name: "tick", NumArgs: 0,
				Model: func([]ocl.Arg, []int) time.Duration { return time.Millisecond }},
		},
	})
}

func testBoard(t *testing.T) *Board {
	t.Helper()
	cfg := DE5aNet(model.WorkerNode())
	cfg.MemBytes = 1 << 20 // keep the capacity tests cheap
	return NewBoard(cfg, testCatalog())
}

func configure(t *testing.T, b *Board) {
	t.Helper()
	bs, err := b.catalog.Lookup("test-echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Configure(bs.Binary()); err != nil {
		t.Fatalf("Configure: %v", err)
	}
}

func TestBoardConfigure(t *testing.T) {
	b := testBoard(t)
	if b.ConfiguredID() != "" {
		t.Fatal("fresh board must be unconfigured")
	}
	bs, _ := b.catalog.Lookup("test-echo")
	d, err := b.Configure(bs.Binary())
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if d != b.Cost().ReconfigureTime {
		t.Fatalf("first configure took %v, want %v", d, b.Cost().ReconfigureTime)
	}
	if b.ConfiguredID() != "test-echo" || b.ConfiguredAccelerator() != "echo" {
		t.Fatalf("configured = %q/%q", b.ConfiguredID(), b.ConfiguredAccelerator())
	}
	// Same bitstream again: cheap no-op.
	d, err = b.Configure(bs.Binary())
	if err != nil || d != 0 {
		t.Fatalf("re-configure: d=%v err=%v", d, err)
	}
	if b.Stats().Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", b.Stats().Reconfigs)
	}
}

func TestBoardConfigureRejectsGarbage(t *testing.T) {
	b := testBoard(t)
	if _, err := b.Configure([]byte("not a bitstream")); !errors.Is(err, ocl.ErrInvalidBinary) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Configure([]byte("AOCX0:nonexistent")); !errors.Is(err, ocl.ErrInvalidBinary) {
		t.Fatalf("err = %v", err)
	}
}

func TestBoardAllocFreeCapacity(t *testing.T) {
	b := testBoard(t)
	id1, err := b.Alloc(512 << 10)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	id2, err := b.Alloc(512 << 10)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if id1 == id2 {
		t.Fatal("buffer IDs must be unique")
	}
	if _, err := b.Alloc(1); !errors.Is(err, ocl.ErrMemObjectAllocFailure) {
		t.Fatalf("over-capacity alloc err = %v", err)
	}
	if err := b.Free(id1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if _, err := b.Alloc(256 << 10); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if err := b.Free(id1); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("double free err = %v", err)
	}
	if _, err := b.Alloc(0); !errors.Is(err, ocl.ErrInvalidBufferSize) {
		t.Fatalf("zero alloc err = %v", err)
	}
}

func TestBoardWriteReadRoundTrip(t *testing.T) {
	b := testBoard(t)
	id, _ := b.Alloc(64)
	data := []byte("hello fpga world")
	wd, err := b.Write(id, 8, data)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if wd <= 0 {
		t.Fatal("write must cost modelled time")
	}
	dst := make([]byte, len(data))
	if _, err := b.Read(id, 8, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatalf("round trip = %q, want %q", dst, data)
	}
}

// ReadView accounts exactly like Read, returns the bytes Read copies, and
// its view cannot be appended into the rest of the buffer.
func TestBoardReadViewAccountsLikeRead(t *testing.T) {
	b := testBoard(t)
	id, _ := b.Alloc(64)
	data := []byte("hello fpga world")
	if _, err := b.Write(id, 8, data); err != nil {
		t.Fatal(err)
	}
	before := b.Stats()
	rd, err := b.Read(id, 8, make([]byte, len(data)))
	if err != nil {
		t.Fatal(err)
	}
	mid := b.Stats()
	view, vd, err := b.ReadView(id, 8, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	after := b.Stats()
	if !bytes.Equal(view, data) {
		t.Fatalf("view = %q, want %q", view, data)
	}
	if vd != rd {
		t.Fatalf("view modelled %v, read %v", vd, rd)
	}
	if after.BytesOut-mid.BytesOut != mid.BytesOut-before.BytesOut ||
		after.TransferOps-mid.TransferOps != mid.TransferOps-before.TransferOps ||
		after.BusyTime-mid.BusyTime != mid.BusyTime-before.BusyTime {
		t.Fatalf("read accounted %+v -> %+v, view %+v", before, mid, after)
	}
	if cap(view) != len(view) {
		t.Fatalf("view capacity %d past its length %d", cap(view), len(view))
	}
	if _, _, err := b.ReadView(id, 60, 8); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("overflow view err = %v", err)
	}
	if _, _, err := b.ReadView(id, 0, -1); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("negative view err = %v", err)
	}
	if _, _, err := b.ReadView(999, 0, 1); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("unknown buffer view err = %v", err)
	}
}

func TestBoardTransferBounds(t *testing.T) {
	b := testBoard(t)
	id, _ := b.Alloc(16)
	if _, err := b.Write(id, 12, make([]byte, 8)); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("overflow write err = %v", err)
	}
	if _, err := b.Write(id, -1, make([]byte, 4)); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("negative offset err = %v", err)
	}
	if _, err := b.Read(id, 10, make([]byte, 8)); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("overflow read err = %v", err)
	}
	if _, err := b.Write(999, 0, make([]byte, 1)); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("unknown buffer write err = %v", err)
	}
	if _, err := b.Read(999, 0, make([]byte, 1)); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("unknown buffer read err = %v", err)
	}
}

func TestBoardCopyMovesDataOnDevice(t *testing.T) {
	b := testBoard(t)
	src, _ := b.Alloc(64)
	dst, _ := b.Alloc(64)
	data := []byte("intermediate result")
	b.Write(src, 4, data)
	d, err := b.Copy(src, dst, 4, 16, int64(len(data)))
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if d <= 0 {
		t.Fatal("copy must cost modelled DDR time")
	}
	got := make([]byte, len(data))
	b.Read(dst, 16, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("copied bytes = %q, want %q", got, data)
	}
	st := b.Stats()
	if st.CopyOps != 1 || st.CopyBytes != int64(len(data)) {
		t.Fatalf("copy counters = %d ops / %d bytes", st.CopyOps, st.CopyBytes)
	}
	// Same-buffer copies are fine while the ranges are disjoint.
	if _, err := b.Copy(src, src, 0, 32, 16); err != nil {
		t.Fatalf("disjoint same-buffer copy: %v", err)
	}
}

func TestBoardCopyValidation(t *testing.T) {
	b := testBoard(t)
	src, _ := b.Alloc(32)
	dst, _ := b.Alloc(16)
	if _, err := b.Copy(999, dst, 0, 0, 8); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("unknown src err = %v", err)
	}
	if _, err := b.Copy(src, 999, 0, 0, 8); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("unknown dst err = %v", err)
	}
	if _, err := b.Copy(src, dst, 0, 0, -1); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("negative length err = %v", err)
	}
	if _, err := b.Copy(src, dst, 28, 0, 8); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("src overflow err = %v", err)
	}
	if _, err := b.Copy(src, dst, 0, 12, 8); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("dst overflow err = %v", err)
	}
	if _, err := b.Copy(src, src, 0, 4, 8); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("overlapping same-buffer copy err = %v", err)
	}
}

func TestBoardRunKernel(t *testing.T) {
	b := testBoard(t)
	configure(t, b)
	in, _ := b.Alloc(32)
	out, _ := b.Alloc(32)
	payload := []byte("0123456789abcdef")
	if _, err := b.Write(in, 0, payload); err != nil {
		t.Fatal(err)
	}
	n, _ := ocl.PackArg(int32(len(payload)))
	d, err := b.Run("echo", []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(out), n}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := time.Duration(len(payload)) * time.Microsecond; d != want {
		t.Fatalf("modelled time = %v, want %v", d, want)
	}
	dst := make([]byte, len(payload))
	if _, err := b.Read(out, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatalf("kernel output = %q, want %q", dst, payload)
	}
}

func TestBoardRunValidation(t *testing.T) {
	b := testBoard(t)
	// No bitstream configured.
	if _, err := b.Run("echo", nil, nil); !errors.Is(err, ocl.ErrInvalidProgramExec) {
		t.Fatalf("unconfigured run err = %v", err)
	}
	configure(t, b)
	if _, err := b.Run("nosuch", nil, nil); !errors.Is(err, ocl.ErrInvalidKernelName) {
		t.Fatalf("unknown kernel err = %v", err)
	}
	if _, err := b.Run("echo", []ocl.Arg{ocl.BufferArg(1)}, nil); !errors.Is(err, ocl.ErrInvalidKernelArgs) {
		t.Fatalf("arity err = %v", err)
	}
	n, _ := ocl.PackArg(int32(1))
	args := []ocl.Arg{ocl.BufferArg(12345), ocl.BufferArg(12346), n}
	if _, err := b.Run("echo", args, nil); !errors.Is(err, ocl.ErrInvalidMemObject) {
		t.Fatalf("dangling buffer err = %v", err)
	}
}

// A kernel that panics (echo slicing past its 32-byte buffers) fails its
// launch with a typed error, accounts no busy time, and leaves the board
// free for the next launch.
func TestBoardRunContainsKernelPanic(t *testing.T) {
	b := testBoard(t)
	configure(t, b)
	in, _ := b.Alloc(32)
	out, _ := b.Alloc(32)
	busy0 := b.BusyTime()
	poisoned, _ := ocl.PackArg(int32(1 << 20))
	_, err := b.Run("echo", []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(out), poisoned}, nil)
	if !errors.Is(err, ocl.ErrOutOfResources) || !strings.Contains(err.Error(), `"echo"`) {
		t.Fatalf("panicking kernel err = %v, want ErrOutOfResources naming the kernel", err)
	}
	if b.BusyTime() != busy0 || b.Stats().KernelRuns != 0 {
		t.Fatalf("failed launch accounted busy=%v runs=%d", b.BusyTime()-busy0, b.Stats().KernelRuns)
	}
	n, _ := ocl.PackArg(int32(32))
	if _, err := b.Run("echo", []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(out), n}, nil); err != nil {
		t.Fatalf("Run after a panicking launch: %v", err)
	}
}

func TestBoardBusyAccounting(t *testing.T) {
	b := testBoard(t)
	configure(t, b)
	busy0 := b.BusyTime()
	if _, err := b.Run("tick", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.BusyTime() - busy0; got != time.Millisecond {
		t.Fatalf("busy delta = %v, want 1ms", got)
	}
	id, _ := b.Alloc(1 << 10)
	wd, _ := b.Write(id, 0, make([]byte, 1<<10))
	if got := b.BusyTime() - busy0; got != time.Millisecond+wd {
		t.Fatalf("busy after write = %v", got)
	}
	st := b.Stats()
	if st.KernelRuns != 1 || st.TransferOps != 1 || st.BytesIn != 1<<10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoardConcurrentClients(t *testing.T) {
	// Many goroutines hammer the board concurrently; the board must stay
	// consistent (run with -race). This models multiple Device Manager
	// worker interactions plus native clients sharing one device.
	b := testBoard(t)
	configure(t, b)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id, err := b.Alloc(128)
			if err != nil {
				t.Error(err)
				return
			}
			buf := bytes.Repeat([]byte{byte(w)}, 128)
			for i := 0; i < 20; i++ {
				if _, err := b.Write(id, 0, buf); err != nil {
					t.Error(err)
					return
				}
				dst := make([]byte, 128)
				if _, err := b.Read(id, 0, dst); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(dst, buf) {
					t.Errorf("worker %d read corrupted data", w)
					return
				}
				if _, err := b.Run("tick", nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := b.Stats().KernelRuns; got != workers*20 {
		t.Fatalf("kernel runs = %d, want %d", got, workers*20)
	}
}

// TestBoardTimeScaleSleeps pins what TimeScale makes the board itself
// sleep: Configure blocks for the scaled reprogram time, while data and
// kernel operations return at once and only account their modelled time
// (their caller holds the board for it, through Hold).
func TestBoardTimeScaleSleeps(t *testing.T) {
	const n = 64 << 10
	cost := model.WorkerNode()
	cost.PCIeGBps = 0.001 // a 64 KiB transfer is modelled at ~66 ms
	cost.DDRGBps = 0.001  // and so is a 64 KiB on-board copy
	cost.ReconfigureTime = 20 * time.Millisecond
	cfg := DE5aNet(cost)
	cfg.TimeScale = 1
	b := NewBoard(cfg, testCatalog())

	start := time.Now()
	configure(t, b)
	if got := time.Since(start); got < cost.ReconfigureTime {
		t.Fatalf("Configure returned after %v, want at least the scaled %v", got, cost.ReconfigureTime)
	}
	if got := b.BusyTime(); got != cost.ReconfigureTime {
		t.Fatalf("busy after Configure = %v, want %v", got, cost.ReconfigureTime)
	}

	src, _ := b.Alloc(n)
	dst, _ := b.Alloc(n)
	data := make([]byte, n)
	size, _ := ocl.PackArg(int32(n))
	ops := []struct {
		name string
		run  func() (time.Duration, error)
		want time.Duration
	}{
		{"write", func() (time.Duration, error) { return b.Write(src, 0, data) }, cost.PCIeTransfer(n)},
		{"copy", func() (time.Duration, error) { return b.Copy(src, dst, 0, 0, n) }, cost.DDRCopy(n)},
		{"read", func() (time.Duration, error) { return b.Read(dst, 0, data) }, cost.PCIeTransfer(n)},
		{"run", func() (time.Duration, error) {
			return b.Run("echo", []ocl.Arg{ocl.BufferArg(src), ocl.BufferArg(dst), size}, nil)
		}, n * time.Microsecond},
	}
	for _, op := range ops {
		busy := b.BusyTime()
		start := time.Now()
		d, err := op.run()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if d != op.want {
			t.Fatalf("%s returned %v, want the modelled %v", op.name, d, op.want)
		}
		if got := b.BusyTime() - busy; got != d {
			t.Fatalf("%s added %v of busy time, want exactly %v", op.name, got, d)
		}
		// The real work is a 64 KiB memcpy (microseconds); sleeping the
		// modelled time would take over 60 ms.
		if elapsed > d/2 {
			t.Fatalf("%s took %v of its modelled %v: data and kernel operations must not sleep", op.name, elapsed, d)
		}
	}

	// Hold is where a caller spends an operation's modelled time.
	start = time.Now()
	b.Hold(cost.ReconfigureTime)
	if got := time.Since(start); got < cost.ReconfigureTime {
		t.Fatalf("Hold returned after %v, want at least %v", got, cost.ReconfigureTime)
	}
}

func TestCatalogParse(t *testing.T) {
	c := testCatalog()
	bs, _ := c.Lookup("test-echo")
	got, err := c.Parse(bs.Binary())
	if err != nil || got.ID != "test-echo" {
		t.Fatalf("Parse = %v, %v", got, err)
	}
	if _, err := c.Parse([]byte("garbage")); !errors.Is(err, ocl.ErrInvalidBinary) {
		t.Fatalf("garbage err = %v", err)
	}
	if _, err := c.Parse([]byte("AOCX0:")); !errors.Is(err, ocl.ErrInvalidBinary) {
		t.Fatalf("empty id err = %v", err)
	}
	if len(c.IDs()) != 1 {
		t.Fatalf("IDs = %v", c.IDs())
	}
}

func TestBitstreamKernelLookup(t *testing.T) {
	c := testCatalog()
	bs, _ := c.Lookup("test-echo")
	if _, err := bs.Kernel("echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Kernel("bogus"); !errors.Is(err, ocl.ErrInvalidKernelName) {
		t.Fatalf("err = %v", err)
	}
	if names := bs.KernelNames(); len(names) != 2 || names[0] != "echo" {
		t.Fatalf("KernelNames = %v", names)
	}
}
