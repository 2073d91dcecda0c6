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

func benchClient(b *testing.B) *Client {
	b.Helper()
	s := NewServer(benchHandler{})
	s.Log = nil
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkFrameRoundTrip measures one unary request/response over live TCP
// with a 4 KiB body — the framing and pooling hot path without any manager
// logic on top.
func BenchmarkFrameRoundTrip(b *testing.B) {
	c := benchClient(b)
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
// completion-shaped notifications with 256-byte payloads while the client
// drains them from the completion queue.
func BenchmarkNotifyBurst(b *testing.B) {
	c := benchClient(b)
	req := make([]byte, 8)
	binary.LittleEndian.PutUint32(req[:4], uint32(b.N))
	binary.LittleEndian.PutUint32(req[4:8], 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Call(2, req); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		note, ok := <-c.Notifications()
		if !ok {
			b.Fatal("completion queue closed mid-burst")
		}
		wire.PutBuf(note)
	}
}
