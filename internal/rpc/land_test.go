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

// landNotes is notes with a lander; it also passes on the capacity of
// each payload the read loop hands it.
type landNotes struct {
	*notes
	land func(tag uint64, n int) []byte
	caps chan int
}

func (h landNotes) Land(tag uint64, n int) []byte { return h.land(tag, n) }
func (h landNotes) Notify(p []byte)               { h.caps <- cap(p); h.notes.Notify(p) }

// A warm 1 MiB notification lands its Data in the lander's slice and
// reaches the handler as a heads-only payload: the client takes no pooled
// buffer of the frame's size. A frame its buffered reader holds whole
// keeps its Data and never asks the lander.
func TestLandedNotifyTakesNoLargeBuffer(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	data := bytes.Repeat([]byte{0x3C, 0xA7}, 1<<19)
	dst := make([]byte, len(data))
	asked := 0
	const frames = 20
	// caps holds one capacity per frame sent: frames large, one small.
	h := landNotes{notes: newNotes(), caps: make(chan int, frames+1), land: func(tag uint64, n int) []byte {
		asked++
		if tag != 9 || n != len(data) {
			t.Errorf("lander asked for tag %d, %d bytes", tag, n)
			return nil
		}
		return dst
	}}
	c := NewClient(cli, h)
	defer c.Close()
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
		payload := <-h.ch
		if size := <-h.caps; size >= 64<<10 {
			t.Fatalf("frame %d: the client took a %d-byte buffer for a landed 1 MiB frame", i, size)
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
	}
	payload := <-h.ch
	var b wire.OpNotificationBatch
	b.Decode(wire.NewDecoder(payload))
	if len(b.Notes) != 2 || !bytes.Equal(b.Notes[1].Data, small) {
		t.Fatalf("small frame: notes %+v", b.Notes)
	}
	if asked != frames {
		t.Fatalf("lander asked %d times, want %d", asked, frames)
	}
}
