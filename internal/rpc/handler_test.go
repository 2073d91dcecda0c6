package rpc

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/wire"
)

// seqNotes records the sequence number each notification carries, and
// every Notify that comes after Lost.
type seqNotes struct {
	mu        sync.Mutex
	seqs      []uint32
	lost      int
	afterLost int
}

func (h *seqNotes) Land(uint64, int) []byte { return nil }

func (h *seqNotes) Notify(p []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lost > 0 {
		h.afterLost++
	}
	h.seqs = append(h.seqs, binary.LittleEndian.Uint32(p))
}

func (h *seqNotes) Lost() {
	h.mu.Lock()
	h.lost++
	h.mu.Unlock()
}

func (h *seqNotes) state() (notified, lost, afterLost int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.seqs), h.lost, h.afterLost
}

// notifyThenRespond pushes its n notifications, then answers.
type notifyThenRespond struct{ n int }

func (h notifyThenRespond) HandleConnect(*Conn)    {}
func (h notifyThenRespond) HandleDisconnect(*Conn) {}
func (h notifyThenRespond) HandleRequest(c *Conn, _ wire.Method, _ []byte) ([]byte, error) {
	var buf [4]byte
	for i := range h.n {
		binary.LittleEndian.PutUint32(buf[:], uint32(i))
		if err := c.Notify(buf[:]); err != nil {
			return nil, err
		}
	}
	return []byte("done"), nil
}

// A response never overtakes an earlier notification: the read loop
// hands each notification to the handler before it reads the next frame,
// so a Call answered behind 2,048 of them returns after the handler has
// seen all 2,048, in order, however many of them a bounded queue between
// the read loop and the handler would have held.
func TestResponseNeverOvertakesNotifications(t *testing.T) {
	const n = 2048
	s := NewServer(notifyThenRespond{n: n})
	s.Log = logx.NewLogf("rpc", t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := &seqNotes{}
	c := NewClient(dialTCP(t, addr), h)
	defer c.Close()
	resp, err := c.CallWithTimeout(1, 10*time.Second)
	if err != nil || string(resp) != "done" {
		t.Fatalf("call behind %d notifications: %q, %v", n, resp, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seqs) != n {
		t.Fatalf("the call returned after %d of %d notifications", len(h.seqs), n)
	}
	for i, seq := range h.seqs {
		if seq != uint32(i) {
			t.Fatalf("notification %d carried %d", i, seq)
		}
	}
}

// Lost runs exactly once, after the last Notify, whether the client
// closes the connection or the peer drops it mid-burst.
func TestLostRunsOnceAfterLastNotify(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(c *Client, s *Server)
	}{
		{"close", func(c *Client, _ *Server) { c.Close() }},
		{"peer drop", func(_ *Client, s *Server) { s.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(&burstHandler{n: 100000})
			s.Log = nil // the cut makes expected transport errors
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := &seqNotes{}
			c := NewClient(dialTCP(t, addr), h)
			defer c.Close()
			if err := c.Send(1); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a notification", func() bool { n, _, _ := h.state(); return n > 0 })
			tc.cut(c, s)
			waitFor(t, "Lost", func() bool { _, lost, _ := h.state(); return lost > 0 })
			before, _, _ := h.state()
			c.Close()
			time.Sleep(20 * time.Millisecond)
			n, lost, after := h.state()
			if lost != 1 || after != 0 || n != before {
				t.Fatalf("Lost ran %d times; %d notifications after it (%d then %d seen)", lost, after, before, n)
			}
		})
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
