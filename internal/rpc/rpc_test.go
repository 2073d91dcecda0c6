package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// echoHandler echoes request bodies; method 99 returns an error; method 98
// pushes the body back as a notification; method 97 blocks briefly;
// method 95 panics.
type echoHandler struct {
	connects    atomic.Int32
	disconnects atomic.Int32
	lastOrder   []byte
	orderMu     sync.Mutex
}

// HandleConnect attaches a session at once: these tests exercise the
// transport as an established peer sees it, large frames included. The
// pre-session frame limit has its own tests in frame_test.go.
func (h *echoHandler) HandleConnect(c *Conn) {
	h.connects.Add(1)
	c.SetSession(h)
}

func (h *echoHandler) HandleDisconnect(c *Conn) { h.disconnects.Add(1) }

func (h *echoHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	switch method {
	case 99:
		return nil, ocl.Errf(ocl.ErrInvalidOperation, "nope: %s", body)
	case 98:
		if err := c.Notify(append([]byte("notify:"), body...)); err != nil {
			return nil, err
		}
		return []byte("sent"), nil
	case 97:
		time.Sleep(20 * time.Millisecond)
		return []byte("slow"), nil
	case 96: // record arrival order of fire-and-forget requests
		h.orderMu.Lock()
		h.lastOrder = append(h.lastOrder, body...)
		h.orderMu.Unlock()
		return nil, nil
	case 95:
		panic("handler bug: " + string(body))
	}
	return append([]byte("echo:"), body...), nil
}

// notes is a test NotifyHandler: it copies each notification onto ch,
// which Lost closes, and lands nothing. ch is deep enough for the bursts
// these tests drain; a full one stalls the read loop, as any slow handler
// does.
type notes struct{ ch chan []byte }

func newNotes() *notes { return &notes{ch: make(chan []byte, 1024)} }

func (n *notes) Land(uint64, int) []byte { return nil }
func (n *notes) Notify(p []byte)         { n.ch <- append([]byte(nil), p...) }
func (n *notes) Lost()                   { close(n.ch) }

// dial connects a client with a notes handler to addr.
func dial(t testing.TB, addr string) (*Client, *notes) {
	t.Helper()
	n := newNotes()
	return NewClient(dialTCP(t, addr), n), n
}

func dialTCP(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func startServer(t *testing.T) (*Server, *echoHandler, string) {
	t.Helper()
	h := &echoHandler{}
	s := NewServer(h)
	s.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, h, addr
}

func TestUnaryCall(t *testing.T) {
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	resp, err := c.Call(1, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestErrorResponseCarriesStatus(t *testing.T) {
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	_, err := c.Call(99, []byte("x"))
	if !errors.Is(err, ocl.ErrInvalidOperation) {
		t.Fatalf("err = %v, want CL_INVALID_OPERATION", err)
	}
	// The connection survives an application error.
	if _, err := c.Call(1, []byte("again")); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestNotificationsReachCompletionQueue(t *testing.T) {
	_, _, addr := startServer(t)
	c, q := dial(t, addr)
	defer c.Close()
	if _, err := c.Call(98, []byte("evt")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-q.ch:
		if string(n) != "notify:evt" {
			t.Fatalf("notification = %q", n)
		}
	case <-time.After(time.Second):
		t.Fatal("notification did not arrive")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := c.Call(1, body)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp, append([]byte("echo:"), body...)) {
				t.Errorf("call %d: resp %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestFireAndForgetOrdering(t *testing.T) {
	// Command-queue consistency depends on fire-and-forget requests being
	// processed in send order.
	_, h, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	for i := byte(0); i < 50; i++ {
		if err := c.Send(96, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	// A unary call after the sends acts as a barrier: it is processed
	// after them on the same connection.
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	h.orderMu.Lock()
	defer h.orderMu.Unlock()
	if len(h.lastOrder) != 50 {
		t.Fatalf("received %d sends, want 50", len(h.lastOrder))
	}
	for i := byte(0); i < 50; i++ {
		if h.lastOrder[i] != i {
			t.Fatalf("order[%d] = %d", i, h.lastOrder[i])
		}
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := c.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp[5:], big) {
		t.Fatal("large payload corrupted")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	_, _, addr := startServer(t)
	c, q := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(97, nil) // slow call
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call must fail on close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call hung after close")
	}
	if _, err := c.Call(1, nil); err == nil {
		t.Fatal("call on closed client must fail")
	}
	// The handler is told the connection is lost.
	select {
	case _, ok := <-q.ch:
		if ok {
			t.Fatal("unexpected notification")
		}
	case <-time.After(time.Second):
		t.Fatal("the handler was not told the connection is lost")
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	s, h, addr := startServer(t)
	c, _ := dial(t, addr)
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	deadline := time.Now().Add(time.Second)
	for h.disconnects.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.disconnects.Load() == 0 {
		t.Fatal("disconnect hook did not run")
	}
	if _, err := c.Call(1, nil); err == nil {
		t.Fatal("call must fail after server close")
	}
}

func TestCallTimeout(t *testing.T) {
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	c.CallTimeout = 5 * time.Millisecond
	if _, err := c.Call(97, nil); err == nil {
		t.Fatal("expected timeout")
	}
	// Late response to the timed-out call must not break later calls.
	c.CallTimeout = time.Second
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Call(1, []byte("ok")); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
}

// TestHandlerPanicClosesOnlyItsConnection: a panicking handler fails the
// one connection whose request triggered it, is logged at Error, and
// leaves other connections and the accept loop serving.
func TestHandlerPanicClosesOnlyItsConnection(t *testing.T) {
	h := &echoHandler{}
	s := NewServer(h)
	var logMu sync.Mutex
	var logged []string
	s.Log = logx.NewLogf("rpc", func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim, _ := dial(t, addr)
	defer victim.Close()
	bystander, _ := dial(t, addr)
	defer bystander.Close()

	if _, err := victim.Call(95, []byte("boom")); err == nil {
		t.Fatal("call into a panicking handler succeeded")
	}
	if resp, err := bystander.Call(1, []byte("still")); err != nil || string(resp) != "echo:still" {
		t.Fatalf("bystander after panic: %q, %v", resp, err)
	}
	late, _ := dial(t, addr)
	defer late.Close()
	if resp, err := late.Call(1, []byte("new")); err != nil || string(resp) != "echo:new" {
		t.Fatalf("new connection after panic: %q, %v", resp, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.disconnects.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := h.disconnects.Load(); n != 1 {
		t.Fatalf("disconnects = %d, want 1 (only the panicking connection)", n)
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "ERROR") && strings.Contains(line, "handler bug: boom") {
			return
		}
	}
	t.Fatalf("panic not logged at Error: %q", logged)
}

func TestSessionState(t *testing.T) {
	got := make(chan any, 1) // the handler runs on the server's goroutine
	h := &sessionHandler{check: func(v any) { got <- v }}
	s := NewServer(h)
	s.Log = nil // silence expected transport errors
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, _ := dial(t, addr)
	defer c.Close()
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "state-from-connect" {
		t.Fatalf("session = %v", v)
	}
}

type sessionHandler struct{ check func(any) }

func (h *sessionHandler) HandleConnect(c *Conn)    { c.SetSession("state-from-connect") }
func (h *sessionHandler) HandleDisconnect(c *Conn) {}
func (h *sessionHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	if method == 2 {
		h.check(c.Session())
	}
	return nil, nil
}

func TestNotificationBurstDelivery(t *testing.T) {
	// The server pushes a large burst of notifications; all arrive in
	// order through the handler even while it is slow to drain (TCP
	// backpressure, not drops).
	const burst = 5000
	h := &burstHandler{n: burst}
	s := NewServer(h)
	s.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, q := dial(t, addr)
	defer c.Close()
	if err := c.Send(1); err != nil { // no response to queue behind the burst
		t.Fatal(err)
	}
	var got uint32
	deadline := time.After(10 * time.Second)
	for got < burst {
		select {
		case note := <-q.ch:
			seq := binary.LittleEndian.Uint32(note)
			if seq != got {
				t.Fatalf("notification %d arrived out of order (want %d)", seq, got)
			}
			got++
			if got%512 == 0 {
				time.Sleep(time.Millisecond) // deliberately slow consumer
			}
		case <-deadline:
			t.Fatalf("received %d/%d notifications", got, burst)
		}
	}
}

type burstHandler struct{ n int }

func (h *burstHandler) HandleConnect(c *Conn)    {}
func (h *burstHandler) HandleDisconnect(c *Conn) {}
func (h *burstHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	go func() {
		for i := 0; i < h.n; i++ {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(i))
			if err := c.Notify(buf[:]); err != nil {
				return
			}
		}
	}()
	return nil, nil
}

func TestNotifyDuringCloseDoesNotPanic(t *testing.T) {
	// A server streams notifications nonstop while the client closes
	// mid-stream, fifty times: the client must not panic, and its handler
	// must be told the connection is lost.
	const rounds = 50
	h := &burstHandler{n: 100000}
	s := NewServer(h)
	s.Log = nil // silence expected transport errors
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < rounds; i++ {
		c, q := dial(t, addr)
		if err := c.Send(1); err != nil { // no response to queue behind the burst
			t.Fatal(err)
		}
		// Drain a few, then close while the server is mid-burst.
		for j := 0; j < 3; j++ {
			<-q.ch
		}
		c.Close()
		// The handler must be told even with frames still arriving.
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-q.ch:
			case <-deadline:
				t.Fatal("the handler was not told the connection is lost after Close")
			}
		}
	}
}

func TestSendFailsPromptlyAfterClose(t *testing.T) {
	// Regression: Send used to race Close — a send slipping past the
	// closed check could block in the write or surface a bare network
	// error. After Close it must return the close cause, promptly.
	_, _, addr := startServer(t)
	c, _ := dial(t, addr)
	c.Close()
	start := time.Now()
	if err := c.Send(96, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Send took %v after Close", d)
	}
	if _, err := c.Call(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close = %v, want ErrClosed", err)
	}
}

func TestConcurrentSendsRacingClose(t *testing.T) {
	// Calls and sends racing teardown must all return — with ErrClosed or
	// a transport error — never hang on a leaked pending entry.
	for round := 0; round < 20; round++ {
		_, _, addr := startServer(t)
		c, _ := dial(t, addr)
		var wg sync.WaitGroup
		done := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := c.Call(1, []byte("ping")); err != nil {
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := c.Send(96, []byte{1}); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		c.Close()
		close(done)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("calls leaked: goroutines still blocked after Close")
		}
	}
}
