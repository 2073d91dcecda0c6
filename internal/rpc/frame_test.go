package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/wire"
)

// helloHandler mimics the Device Manager's session rule: method 1 attaches
// a session (Hello), every other method echoes its body.
type helloHandler struct{ gone chan struct{} } // one token per disconnect

func (h *helloHandler) HandleConnect(*Conn)    {}
func (h *helloHandler) HandleDisconnect(*Conn) { h.gone <- struct{}{} }
func (h *helloHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	if method == 1 {
		c.SetSession(h)
		return nil, nil
	}
	e := wire.GetEncoder(len(body))
	e.Raw(body)
	return e.Detach(), nil
}

// startHelloServer returns the handler, the server's logger (whose ring the
// tests read back with Tail) and the listening address.
func startHelloServer(t *testing.T) (h *helloHandler, log *logx.Logger, addr string) {
	t.Helper()
	h = &helloHandler{gone: make(chan struct{}, 4)} // no test opens more connections
	log = logx.New(logx.Config{Component: "rpc"})
	s := NewServer(h)
	s.Log = log
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return h, log, addr
}

func frameHeader(n uint32, typ byte) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], n)
	hdr[4] = typ
	return hdr[:]
}

// allocatedDuring returns the process-wide TotalAlloc delta across f,
// which has to include a wait for whatever goroutine does the allocating.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func waitGone(t *testing.T, h *helloHandler) {
	t.Helper()
	select {
	case <-h.gone:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection open")
	}
}

// Five bytes from a stranger must not cost the manager two gigabytes: a
// header over the pre-session limit closes the connection before anything
// is allocated for it, and the log names the peer.
func TestPreSessionGiantHeaderClosesConnection(t *testing.T) {
	h, log, addr := startHelloServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spent := allocatedDuring(func() {
		if _, err := conn.Write(frameHeader(2<<30, frameRequest)); err != nil {
			t.Fatal(err)
		}
		waitGone(t, h)
	})
	if spent >= 1<<20 {
		t.Errorf("a 5-byte header cost %d bytes of allocation, want under 1 MiB", spent)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Errorf("read after the oversized header: %v, want the connection closed", err)
	}
	warned := false
	for _, ev := range log.Tail() {
		line := ev.Format()
		warned = warned || ev.Level == logx.LevelWarn &&
			strings.Contains(line, ErrFrameTooLarge.Error()) && strings.Contains(line, conn.LocalAddr().String())
	}
	if !warned {
		t.Errorf("no Warn naming peer %s with %q; log: %v", conn.LocalAddr(), ErrFrameTooLarge, log.Tail())
	}
}

// A frame one byte over the pre-session limit is refused, one at the limit
// is served, and Hello lifts the limit for the rest of the connection.
func TestSessionLiftsFrameLimit(t *testing.T) {
	_, _, addr := startHelloServer(t)

	stranger, _ := dial(t, addr)
	defer stranger.Close()
	atLimit := make([]byte, preSessionFrameMax-10) // 10 bytes of request header
	resp, err := stranger.Call(2, atLimit)
	if err != nil || len(resp) != len(atLimit) {
		t.Fatalf("request at the pre-session limit: %d bytes, err %v", len(resp), err)
	}
	wire.PutBuf(resp)
	if _, err := stranger.Call(2, make([]byte, len(atLimit)+1)); !errors.Is(err, ErrManagerDown) {
		t.Fatalf("request over the pre-session limit: err %v, want the connection dropped", err)
	}

	// 8 MiB is past every pool class: the reader grows into it.
	peer, _ := dial(t, addr)
	defer peer.Close()
	if _, err := peer.Call(1); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i*13 + i>>10)
	}
	resp, err = peer.Call(2, big)
	if err != nil || !bytes.Equal(resp, big) {
		t.Fatalf("8 MiB request after Hello: %d bytes back, err %v", len(resp), err)
	}
	wire.PutBuf(resp)
}

// After Hello a peer may send large frames, but a length is still only a
// claim: a gigabyte header followed by ten bytes and a close must cost
// about what ten bytes cost.
func TestPostSessionTruncatedGiantFrame(t *testing.T) {
	h, _, addr := startHelloServer(t)
	c, _ := dial(t, addr)
	defer c.Close()
	if _, err := c.Call(1); err != nil {
		t.Fatal(err)
	}
	spent := allocatedDuring(func() {
		if _, err := c.conn.Write(append(frameHeader(1<<30, frameRequest), make([]byte, 10)...)); err != nil {
			t.Fatal(err)
		}
		c.conn.Close()
		waitGone(t, h)
	})
	if spent >= 1<<20 {
		t.Errorf("15 bytes claiming 1 GiB cost %d bytes of allocation, want under 1 MiB", spent)
	}
}

func TestReadFrameBuffersControlFrames(t *testing.T) {
	// Four control frames written back to back reach readFrame through one
	// Read of the underlying connection.
	var stream bytes.Buffer
	fw := frameWriter{w: &stream}
	for i := 0; i < 4; i++ {
		if err := fw.writeFrame(false, frameRequest, []byte("0123456789"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	src := &countingReader{r: &stream}
	r := newFrameReader(src)
	for i := 0; i < 4; i++ {
		typ, payload, err := readFrame(r, preSessionFrameMax)
		if err != nil || typ != frameRequest || len(payload) != 11 || payload[10] != byte(i) {
			t.Fatalf("frame %d: typ %d payload %q err %v", i, typ, payload, err)
		}
		wire.PutBuf(payload)
	}
	if src.reads != 1 {
		t.Errorf("%d reads for four buffered control frames, want 1", src.reads)
	}
	if _, _, err := readFrame(r, preSessionFrameMax); err != io.EOF {
		t.Errorf("clean end of stream: %v, want io.EOF", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	full := append(frameHeader(8, frameNotify), "12345678"...)
	for cut := 1; cut < len(full); cut++ {
		_, _, err := readFrame(newFrameReader(bytes.NewReader(full[:cut])), MaxFrameBytes)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

// A manager pushes notifications only as type-4 frames; type 3, like any
// unknown type, poisons the client instead of reaching its handler.
func TestClientRejectsFrameType3(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	q := newNotes()
	c := NewClient(cli, q)
	defer c.Close()
	go srv.Write(append(frameHeader(3, 3), "abc"...))
	if _, ok := <-q.ch; ok {
		t.Fatal("a type-3 frame reached the handler")
	}
	if _, err := c.Call(1); !errors.Is(err, ErrManagerDown) {
		t.Fatalf("call after a type-3 frame: %v, want ErrManagerDown", err)
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader as a fresh peer
// (pre-session limit) and as an established one: it must never panic, must
// hand back exactly the bytes that followed each header, and must not let a
// header make it allocate beyond a multiple of the input actually present
// plus what one pooled buffer of the trusted range costs.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameHeader(0, frameRequest))
	f.Add(append(frameHeader(3, frameNotify), "abc"...))
	f.Add(append(frameHeader(3, frameNotify), "ab"...))
	f.Add(frameHeader(2<<30, frameRequest))
	f.Add(append(frameHeader(1<<30, frameRequest), make([]byte, 10)...))
	f.Add(append(frameHeader(preSessionFrameMax+1, frameRequest), make([]byte, 64)...))
	f.Add(append(append(frameHeader(1, frameResponse), 'x'), frameHeader(4<<20+1, frameNotify)...))
	f.Add(frameHeader(0xFFFFFFFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{preSessionFrameMax, MaxFrameBytes} {
			// TotalAlloc is process-wide, and other goroutines (other
			// packages' tests under `make race`) can only add to it: the
			// least of three identical passes is readFrame's own.
			spent := uint64(math.MaxUint64)
			for range 3 {
				spent = min(spent, allocatedDuring(func() {
					r := newFrameReader(bytes.NewReader(data))
					for consumed := 0; ; {
						_, payload, err := readFrame(r, limit)
						if err != nil {
							return
						}
						if len(payload) > limit {
							t.Fatalf("limit %d: got a %d-byte frame", limit, len(payload))
						}
						off := consumed + headerLen
						if !bytes.Equal(payload, data[off:off+len(payload)]) {
							t.Fatalf("frame at offset %d: payload differs from the stream", consumed)
						}
						consumed = off + len(payload)
						wire.PutBuf(payload)
					}
				}))
			}
			// One trusted-range buffer (4 MiB on a pool miss) when established,
			// the limit itself when not; doubling growth beyond that.
			budget := uint64(4*len(data)) + 64<<10
			if limit == MaxFrameBytes {
				budget += 4 << 20
			}
			if spent > budget {
				t.Fatalf("limit %d: %d input bytes made readFrame allocate %d", limit, len(data), spent)
			}
		}
	})
}
