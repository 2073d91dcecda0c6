package rpc

import (
	"bytes"
	"net"
	"testing"

	"blastfunction/internal/wire"
)

// notifyBatch encodes the heads of a Running and a Complete notification
// for tag, the Complete one announcing n bytes of Data that follow.
func notifyBatch(tag uint64, n int) []byte {
	e := wire.NewEncoder(128)
	e.U32(2)
	(&wire.OpNotification{Tag: tag, State: wire.OpRunning}).EncodeHead(e)
	(&wire.OpNotification{Tag: tag, State: wire.OpComplete, Data: make([]byte, n)}).EncodeHead(e)
	return e.Bytes()
}

// With a lander set, a warm 1 MiB notification lands its Data in the
// lander's slice and reaches the completion queue as a heads-only payload:
// the client takes no pooled buffer of the frame's size. A frame its
// buffered reader holds whole keeps its Data and never asks the lander.
func TestLandedNotifyTakesNoLargeBuffer(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	c := NewClient(cli)
	defer c.Close()
	data := bytes.Repeat([]byte{0x3C, 0xA7}, 1<<19)
	dst := make([]byte, len(data))
	asked := 0
	c.SetLander(func(tag uint64, n int) []byte {
		asked++
		if tag != 9 || n != len(data) {
			t.Errorf("lander asked for tag %d, %d bytes", tag, n)
			return nil
		}
		return dst
	})
	const frames = 20
	small := []byte("small payload")
	next := make(chan struct{})
	go func() {
		fw := frameWriter{w: srv}
		for range frames {
			if _, ok := <-next; !ok {
				return
			}
			fw.writeFrame(false, frameNotify, notifyBatch(9, len(data)), data)
		}
		fw.writeFrame(false, frameNotify, notifyBatch(10, len(small)), small)
	}()
	defer close(next)
	for i := range frames {
		clear(dst)
		next <- struct{}{}
		payload := <-c.Notifications()
		if cap(payload) >= 64<<10 {
			t.Fatalf("frame %d: the client took a %d-byte buffer for a landed 1 MiB frame", i, cap(payload))
		}
		var b wire.OpNotificationBatch
		d := wire.NewDecoder(payload)
		b.Decode(d)
		if d.Err() != nil || len(b.Notes) != 2 || b.Notes[1].State != wire.OpComplete || b.Notes[1].Data != nil {
			t.Fatalf("frame %d: err %v, notes %+v", i, d.Err(), b.Notes)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("frame %d: landed bytes differ", i)
		}
		wire.PutBuf(payload)
	}
	payload := <-c.Notifications()
	var b wire.OpNotificationBatch
	b.Decode(wire.NewDecoder(payload))
	if len(b.Notes) != 2 || !bytes.Equal(b.Notes[1].Data, small) {
		t.Fatalf("small frame: notes %+v", b.Notes)
	}
	wire.PutBuf(payload)
	if asked != frames {
		t.Fatalf("lander asked %d times, want %d", asked, frames)
	}
}
