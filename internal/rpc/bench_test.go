package rpc

import (
	"encoding/binary"
	"testing"

	"blastfunction/internal/wire"
)

// benchHandler serves the transport benchmarks: method 1 is a minimal unary
// round trip, method 2 streams notifications shaped like the manager's
// completion pushes (pooled encoder head + vectored data segment).
type benchHandler struct{}

func (benchHandler) HandleConnect(c *Conn)  { c.SetSession(true) } // lifts the pre-session frame limit
func (benchHandler) HandleDisconnect(*Conn) {}

func (benchHandler) HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error) {
	if method != 2 {
		return nil, nil
	}
	n := int(binary.LittleEndian.Uint32(body[:4]))
	size := int(binary.LittleEndian.Uint32(body[4:8]))
	go func() {
		data := make([]byte, size)
		for i := 0; i < n; i++ {
			e := wire.GetEncoder(64)
			(&wire.OpNotification{Tag: uint64(i), State: wire.OpComplete, Data: data}).EncodeHead(e)
			err := c.Notify(e.Bytes(), data)
			e.Release()
			if err != nil {
				return
			}
		}
	}()
	return nil, nil
}

// countNotes counts notifications on the read loop: done receives true
// once want have arrived, false if the connection is lost first.
type countNotes struct {
	want, got int
	done      chan bool
}

func (n *countNotes) Land(uint64, int) []byte { return nil }
func (n *countNotes) Notify([]byte) {
	if n.got++; n.got == n.want {
		n.done <- true
	}
}
func (n *countNotes) Lost() { n.done <- false }

func benchClient(b *testing.B, h NotifyHandler) *Client {
	b.Helper()
	s := NewServer(benchHandler{})
	s.Log = nil
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c := NewClient(dialTCP(b, addr), h)
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkFrameRoundTrip measures one unary request/response over live TCP
// with a 4 KiB body — the framing and pooling hot path without any manager
// logic on top.
func BenchmarkFrameRoundTrip(b *testing.B) {
	c := benchClient(b, newNotes())
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Call(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		wire.PutBuf(resp)
	}
}

// BenchmarkNotifyBurst measures server-push throughput: the server streams
// completion-shaped notifications with 256-byte payloads, which the
// client's read loop hands to its handler.
func BenchmarkNotifyBurst(b *testing.B) {
	h := &countNotes{want: b.N, done: make(chan bool, 2)}
	c := benchClient(b, h)
	req := make([]byte, 8)
	binary.LittleEndian.PutUint32(req[:4], uint32(b.N))
	binary.LittleEndian.PutUint32(req[4:8], 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Call(2, req); err != nil {
		b.Fatal(err)
	}
	if !<-h.done {
		b.Fatal("connection lost mid-burst")
	}
}
