package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/wire"
)

// dialFaulty connects to addr with a FaultConn wrapped around the client
// side of the connection.
func dialFaulty(t *testing.T, addr string) (*Client, *FaultConn, *notes) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := InjectFaults(raw)
	q := newNotes()
	c := NewClient(fc, q)
	t.Cleanup(func() { c.Close() })
	return c, fc, q
}

// TestCloseMidFrameFailsPendingWithManagerDown kills the connection in the
// middle of a frame while a call is in flight: the pending call must fail
// with ErrManagerDown promptly (bounded by the test timeout, not the
// one-minute default call deadline), and later calls must fail fast too.
func TestCloseMidFrameFailsPendingWithManagerDown(t *testing.T) {
	_, _, addr := startServer(t)
	c, fc, q := dialFaulty(t, addr)

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(97) // server sleeps 20ms before responding
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the request reach the wire

	fc.CloseMidFrame()
	c.Send(96, []byte("x")) // truncated on the wire; connection dies

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrManagerDown) {
			t.Fatalf("pending call error = %v, want ErrManagerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call did not fail after connection loss")
	}
	if _, err := c.Call(1, []byte("after")); !errors.Is(err, ErrManagerDown) {
		t.Fatalf("post-failure call error = %v, want ErrManagerDown", err)
	}
	if _, ok := <-q.ch; ok {
		t.Fatal("the handler was not told the connection is lost")
	}
}

// TestDroppedWriteHitsCallDeadline blackholes client writes: the request
// never reaches the manager, so the per-call deadline — not a transport
// error — surfaces the loss.
func TestDroppedWriteHitsCallDeadline(t *testing.T) {
	_, _, addr := startServer(t)
	c, fc, _ := dialFaulty(t, addr)

	fc.DropWrites(true)
	start := time.Now()
	_, err := c.CallWithTimeout(1, 30*time.Millisecond, []byte("void"))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v, want ~30ms", elapsed)
	}
	if fc.Dropped.Load() == 0 {
		t.Fatal("fault plan never dropped a write")
	}

	// The connection itself stayed healthy: once writes flow again the
	// same client completes calls.
	fc.DropWrites(false)
	resp, err := c.Call(1, []byte("back"))
	if err != nil {
		t.Fatalf("call after drop window: %v", err)
	}
	if string(resp) != "echo:back" {
		t.Fatalf("resp = %q", resp)
	}
	wire.PutBuf(resp)
}

// flakyHandler times out the first request (sleeps past the caller's
// deadline) and answers the rest immediately.
type flakyHandler struct {
	calls atomic.Int32
	slow  time.Duration
}

func (h *flakyHandler) HandleConnect(c *Conn)    {}
func (h *flakyHandler) HandleDisconnect(c *Conn) {}
func (h *flakyHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	if h.calls.Add(1) == 1 {
		time.Sleep(h.slow)
	}
	return []byte("ok"), nil
}

// TestCallRetryRecoversFromDeadline retries an idempotent call whose first
// attempt times out while the connection stays up; the second attempt must
// succeed and the late first response must be discarded without poisoning
// the client.
func TestCallRetryRecoversFromDeadline(t *testing.T) {
	h := &flakyHandler{slow: 80 * time.Millisecond}
	s := NewServer(h)
	s.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, _ := dial(t, addr)
	defer c.Close()

	b := Backoff{Attempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 42}
	resp, err := c.CallRetry(b, 30*time.Millisecond, 1)
	if err != nil {
		t.Fatalf("CallRetry: %v", err)
	}
	if string(resp) != "ok" {
		t.Fatalf("resp = %q", resp)
	}
	wire.PutBuf(resp)
	if got := h.calls.Load(); got < 2 {
		t.Fatalf("handler saw %d calls, want >= 2 (a retry)", got)
	}
}

// TestCallRetryFailsFastOnManagerDown verifies retry never papers over a
// dead manager: connection loss fails the call on the first attempt.
func TestCallRetryFailsFastOnManagerDown(t *testing.T) {
	_, _, addr := startServer(t)
	c, fc, _ := dialFaulty(t, addr)

	fc.CloseMidFrame()
	c.Send(96, []byte("x")) // kill the connection
	start := time.Now()
	_, err := c.CallRetry(DefaultBackoff(7), 50*time.Millisecond, 1)
	if !errors.Is(err, ErrManagerDown) {
		t.Fatalf("err = %v, want ErrManagerDown", err)
	}
	// DefaultBackoff would sleep between attempts; failing fast must not.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestBackoffDeterministic pins the jitter schedule to the seed.
func TestBackoffDeterministic(t *testing.T) {
	a := Backoff{Attempts: 4, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 99}
	b := a
	for i := 0; i < 3; i++ {
		da, db := a.next(i), b.next(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v", i, da, db)
		}
		if da <= 0 || da > 100*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v out of (0, Max]", i, da)
		}
	}
}

// TestServerWrapConnInjectsFaults exercises the server-side hook: a
// manager-side mid-frame close during a notification push must drop the
// client with ErrManagerDown and tell its handler the connection is lost.
func TestServerWrapConnInjectsFaults(t *testing.T) {
	h := &echoHandler{}
	s := NewServer(h)
	s.Log = logx.NewLogf("rpc", t.Logf)
	var mu sync.Mutex
	var faulty []*FaultConn
	s.WrapConn = func(raw net.Conn) net.Conn {
		fc := InjectFaults(raw)
		mu.Lock()
		faulty = append(faulty, fc)
		mu.Unlock()
		return fc
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, q := dial(t, addr)
	defer c.Close()
	resp, err := c.Call(1, []byte("warm"))
	if err != nil {
		t.Fatalf("warm-up call through wrapped conn: %v", err)
	}
	wire.PutBuf(resp)

	mu.Lock()
	if len(faulty) != 1 {
		mu.Unlock()
		t.Fatalf("WrapConn ran %d times, want 1", len(faulty))
	}
	fc := faulty[0]
	mu.Unlock()

	fc.CloseMidFrame()
	// Method 98 makes the handler push a notification — the write that the
	// fault plan truncates.
	if _, err := c.CallWithTimeout(98, 2*time.Second, []byte("n")); err == nil {
		t.Fatal("call survived manager-side mid-frame close")
	}
	select {
	case _, ok := <-q.ch:
		if ok {
			t.Fatal("got a notification from a truncated frame")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the handler was not told the connection is lost after manager-side failure")
	}
}
