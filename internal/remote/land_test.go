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
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/rpc"
)

// pattern returns n bytes with no zero among them.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i%251) + 1
	}
	return b
}

// landCounter wraps a connection's handler and counts what its Land
// lands.
type landCounter struct {
	rpc.NotifyHandler
	landed  atomic.Int64
	lastDst atomic.Pointer[byte]
}

func (l *landCounter) Land(tag uint64, n int) []byte {
	b := l.NotifyHandler.Land(tag, n)
	if b != nil {
		l.landed.Add(int64(n))
		l.lastDst.Store(&b[0])
	}
	return b
}

// A warm 1 MiB inline read lands from the socket in the caller's buffer:
// the read loop's lander is asked once per read, for the whole result,
// and returns the caller's own slice.
func TestInlineReadLandsInCallerBuffer(t *testing.T) {
	r := newRig(t)
	lc := &landCounter{}
	newRPCClient = func(conn net.Conn, h rpc.NotifyHandler) *rpc.Client {
		lc.NotifyHandler = h
		return rpc.NewClient(conn, lc)
	}
	t.Cleanup(func() { newRPCClient = rpc.NewClient })
	c, err := Dial(Config{ClientName: t.Name(), Managers: []string{r.addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 1 << 20
	lt := newLoopbackTask(t, c, size)
	landed, lastDst := &lc.landed, &lc.lastDst
	src := pattern(size)
	for i := range 5 {
		dst := make([]byte, size)
		lt.enqueue(t, src, dst)
		if err := lt.q.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("task %d: read result differs", i)
		}
		if got := landed.Swap(0); got != size {
			t.Fatalf("task %d: %d bytes landed, want %d", i, got, size)
		}
		if lastDst.Load() != &dst[0] {
			t.Fatalf("task %d: the bytes landed outside the caller's buffer", i)
		}
	}
}

// cutOnBulk cuts its connection halfway through the first write of at
// least 1 MiB after it is armed: on the manager's side of the connection
// that is the Data of a 1 MiB inline read, while the client lands it.
type cutOnBulk struct {
	*rpc.FaultConn
	armed *atomic.Bool
}

func (c cutOnBulk) Write(b []byte) (int, error) {
	if len(b) >= 1<<20 && c.armed.CompareAndSwap(true, false) {
		c.FaultConn.CloseMidFrame()
	}
	return c.FaultConn.Write(b)
}

// A connection lost while a read's data is landing fails the read with
// ErrManagerDown in bounded time, lands nothing past what arrived, and
// leaves no goroutine behind.
func TestConnectionLossWhileDataLands(t *testing.T) {
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	mgr := manager.New(manager.Config{Node: "rignode", DeviceID: "rig0"}, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	var armed atomic.Bool
	srv.WrapConn = func(conn net.Conn) net.Conn {
		return cutOnBulk{FaultConn: rpc.InjectFaults(conn, rpc.Faults{}), armed: &armed}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	goroutines := runtime.NumGoroutine()

	c, err := Dial(Config{ClientName: t.Name(), Managers: []string{addr}, Transport: TransportGRPC})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	lt := newLoopbackTask(t, c, size)
	src := pattern(size)
	// Fill the output buffer: this task's completion carries no data.
	if _, err := lt.q.EnqueueWriteBuffer(lt.in, false, 0, src, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.q.EnqueueTask(lt.k, nil); err != nil {
		t.Fatal(err)
	}
	if err := lt.q.Finish(); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, size)
	armed.Store(true)
	rd, err := lt.q.EnqueueReadBuffer(lt.out, false, 0, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rd.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, rpc.ErrManagerDown) {
			t.Fatalf("read cut mid-data: %v, want ErrManagerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still waiting 5s after its connection was cut mid-data")
	}
	if armed.Load() {
		t.Fatal("the connection was not cut inside the read's data")
	}
	// What landed is a prefix of the result: the half the manager wrote
	// before the cut, at most.
	got := 0
	for i, b := range dst {
		if b != 0 && (i >= size/2 || b != src[i]) {
			t.Fatalf("byte %d of the failed read is %d: landed past the cut or wrong", i, b)
		}
		if b != 0 {
			got++
		}
	}
	t.Logf("%d of %d bytes landed before the cut", got, size)

	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after Close, %d before Dial", n, goroutines)
	}
}
