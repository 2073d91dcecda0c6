package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// encodeBatch returns the wire bytes of a batch of notes.
func encodeBatch(notes ...OpNotification) []byte {
	e := NewEncoder(256)
	(&OpNotificationBatch{Notes: notes}).Encode(e)
	return e.Bytes()
}

// allocatedDuring reports the bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sameHead reports whether two notifications agree on everything but Data.
func sameHead(a, b *OpNotification) bool {
	return a.Tag == b.Tag && a.State == b.State && a.Status == b.Status &&
		a.Error == b.Error && a.ShmLen == b.ShmLen && a.DeviceNanos == b.DeviceNanos
}

// FuzzNotificationStream checks the streaming decoder against
// OpNotificationBatch.Decode of the whole payload, once with a lander that
// takes every Data and once with one that takes none: both must agree on
// error or no error, on every notification, and on every data byte,
// whether it landed or stayed in the batch. Allocations stay within
// FuzzReadFrame's rule, 4× the input plus 64 KiB; what the lander hands
// out is preallocated and not counted.
func FuzzNotificationStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	big := OpNotification{Tag: 3, State: OpComplete, DeviceNanos: 9, Data: bytes.Repeat([]byte{0xA5}, 5000)}
	f.Add(encodeBatch(
		OpNotification{Tag: 1, State: OpRunning},
		OpNotification{Tag: 1, State: OpComplete, Data: []byte("payload"), DeviceNanos: 1500},
		OpNotification{Tag: 2, State: OpFailed, Status: -5, Error: "boom"},
	))
	f.Add(encodeBatch(OpNotification{Tag: 3, State: OpRunning}, big))
	f.Add(encodeBatch(big)[:4000])
	f.Add(append(encodeBatch(OpNotification{Tag: 4, State: OpComplete, ShmLen: 64}), "trailing"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want OpNotificationBatch
		wd := NewDecoder(data)
		want.Decode(wd)
		for _, accept := range []bool{true, false} {
			arena := make([]byte, len(data))
			landed := make([][]byte, 0, len(data)/minEncodedNotificationSize+1)
			used := 0
			land := func(_ uint64, n int) []byte {
				if !accept {
					return nil
				}
				b := arena[used : used+n]
				used += n
				landed = append(landed, b)
				return b
			}
			var batch []byte
			var err error
			spent := uint64(math.MaxUint64)
			for range 3 { // the least of three passes is the decoder's own
				r := bytes.NewReader(data)
				used, landed = 0, landed[:0]
				if batch != nil {
					PutBuf(batch)
				}
				spent = min(spent, allocatedDuring(func() {
					batch, err = ReadNotificationBatch(r, len(data), land)
				}))
				if r.Len() != 0 {
					t.Fatalf("accept=%v: %d frame bytes left unread", accept, r.Len())
				}
			}
			if budget := uint64(4*len(data)) + 64<<10; spent > budget {
				t.Fatalf("accept=%v: %d input bytes made the stream allocate %d", accept, len(data), spent)
			}
			if (err == nil) != (wd.Err() == nil) {
				t.Fatalf("accept=%v: stream err %v, Decode err %v", accept, err, wd.Err())
			}
			if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("accept=%v: layout fault reported as %v", accept, err)
			}
			if batch == nil {
				t.Fatalf("accept=%v: no batch (err %v) from a complete frame", accept, err)
			}
			var got OpNotificationBatch
			gd := NewDecoder(batch)
			got.Decode(gd)
			if gd.Err() != nil || gd.Remaining() != 0 {
				t.Fatalf("accept=%v: re-encoded batch: err %v, %d bytes over", accept, gd.Err(), gd.Remaining())
			}
			if err == nil && len(got.Notes) != len(want.Notes) {
				t.Fatalf("accept=%v: %d notifications, Decode %d", accept, len(got.Notes), len(want.Notes))
			}
			next := 0
			for i := range got.Notes {
				g, w := &got.Notes[i], &want.Notes[i]
				if !sameHead(g, w) {
					t.Fatalf("accept=%v: note %d: %+v, Decode %+v", accept, i, g, w)
				}
				data := g.Data
				if accept && len(w.Data) > 0 {
					if len(g.Data) != 0 {
						t.Fatalf("accept=%v: note %d kept %d bytes the lander took", accept, i, len(g.Data))
					}
					data = landed[next]
					next++
				}
				if !bytes.Equal(data, w.Data) {
					t.Fatalf("accept=%v: note %d: data differs from Decode's", accept, i)
				}
			}
			PutBuf(batch)
		}
	})
}

// A 1 MiB Data through the buffered reader the rpc read loop uses lands
// in the caller's slice, and the batch that remains holds the heads only.
func TestNotificationStreamLandsLargeData(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	frame := encodeBatch(
		OpNotification{Tag: 7, State: OpRunning},
		OpNotification{Tag: 7, State: OpComplete, DeviceNanos: 42, Data: payload},
	)
	dst := make([]byte, len(payload)+10)
	var asked []uint64
	r := bufio.NewReaderSize(bytes.NewReader(append(frame, "next"...)), 4101)
	batch, err := ReadNotificationBatch(r, len(frame), func(tag uint64, n int) []byte {
		asked = append(asked, tag)
		if n != len(payload) {
			t.Fatalf("lander asked for %d bytes, want %d", n, len(payload))
		}
		return dst
	})
	if err != nil {
		t.Fatal(err)
	}
	defer PutBuf(batch)
	if len(asked) != 1 || asked[0] != 7 {
		t.Fatalf("lander asked for tags %v, want [7]", asked)
	}
	if !bytes.Equal(dst[:len(payload)], payload) || !bytes.Equal(dst[len(payload):], make([]byte, 10)) {
		t.Fatal("landed bytes differ from the payload or overran it")
	}
	if cap(batch) >= 64<<10 {
		t.Fatalf("batch buffer of %d bytes for two heads", cap(batch))
	}
	var got OpNotificationBatch
	got.Decode(NewDecoder(batch))
	if len(got.Notes) != 2 || got.Notes[1].Data != nil || got.Notes[1].DeviceNanos != 42 {
		t.Fatalf("batch = %+v", got.Notes)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "next" {
		t.Fatalf("stream after the frame = %q", rest)
	}
}

// A frame cut short inside landed data is the reader's error, with no
// batch; a malformed one consumes its frame and keeps the notes before
// the fault.
func TestNotificationStreamFaults(t *testing.T) {
	frame := encodeBatch(
		OpNotification{Tag: 1, State: OpRunning},
		OpNotification{Tag: 1, State: OpComplete, Data: make([]byte, 8000)},
	)
	dst := make([]byte, 8000)
	land := func(uint64, int) []byte { return dst }
	batch, err := ReadNotificationBatch(bytes.NewReader(frame[:6000]), len(frame), land)
	if batch != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut frame: batch %d bytes, err %v; want none and ErrUnexpectedEOF", len(batch), err)
	}

	bad := bytes.Clone(frame)
	bad[len(bad)-8000-4] = 0xFF // the second note's Data length, past the frame
	r := bytes.NewReader(append(bad, "next"...))
	batch, err = ReadNotificationBatch(r, len(bad), land)
	if !errors.Is(err, ErrTruncated) || batch == nil {
		t.Fatalf("malformed frame: batch %v, err %v; want the prefix and ErrTruncated", batch != nil, err)
	}
	defer PutBuf(batch)
	var got OpNotificationBatch
	got.Decode(NewDecoder(batch))
	if len(got.Notes) != 1 || got.Notes[0].State != OpRunning {
		t.Fatalf("prefix = %+v", got.Notes)
	}
	if r.Len() != 4 {
		t.Fatalf("%d bytes after the malformed frame, want the 4 behind it", r.Len())
	}
}
